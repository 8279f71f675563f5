// Determinism regression suite (ARCHITECTURE.md §5, "Correctness
// tooling"): EventQueue FIFO tie-break stability under simultaneous
// events, the VGRID_AUDIT runtime-invariant machinery, and same-seed /
// identical-trace checks for one guest-performance and one host-impact
// experiment — the in-tree counterpart of `vgrid determinism-audit`.

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/guest_perf.hpp"
#include "core/host_impact.hpp"
#include "core/runner.hpp"
#include "core/testbed.hpp"
#include "obs/context.hpp"
#include "sim/event_queue.hpp"
#include "util/audit.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "vmm/profile.hpp"
#include "workloads/sevenzip/bench7z.hpp"

namespace vgrid {
namespace {

// ---- EventQueue FIFO tie-break ---------------------------------------------

TEST(EventQueueFifo, SimultaneousEventsFireInInsertionOrder) {
  sim::EventQueue queue;
  std::vector<int> order;
  constexpr sim::SimTime kWhen = 1'000;
  for (int i = 0; i < 64; ++i) {
    queue.push(kWhen, [&order, i] { order.push_back(i); });
  }
  while (!queue.empty()) {
    auto fired = queue.pop();
    fired.callback();
  }
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueueFifo, InterleavedTimesStillFifoWithinEachInstant) {
  sim::EventQueue queue;
  std::vector<std::pair<sim::SimTime, int>> order;
  // Push out of time order, several events per instant.
  const sim::SimTime times[] = {30, 10, 20, 10, 30, 20, 10};
  int tag = 0;
  for (const sim::SimTime when : times) {
    const int this_tag = tag++;
    queue.push(when, [&order, when, this_tag] {
      order.emplace_back(when, this_tag);
    });
  }
  while (!queue.empty()) queue.pop().callback();
  const std::vector<std::pair<sim::SimTime, int>> expected = {
      {10, 1}, {10, 3}, {10, 6}, {20, 2}, {20, 5}, {30, 0}, {30, 4}};
  EXPECT_EQ(order, expected);
}

TEST(EventQueueFifo, CancellationPreservesOrderOfSurvivors) {
  sim::EventQueue queue;
  std::vector<int> order;
  constexpr sim::SimTime kWhen = 5;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(queue.push(kWhen, [&order, i] { order.push_back(i); }));
  }
  // Cancel the evens; the odds must still fire in insertion order.
  for (int i = 0; i < 10; i += 2) {
    EXPECT_TRUE(queue.cancel(ids[static_cast<size_t>(i)]));
  }
  EXPECT_FALSE(queue.cancel(ids[0]));  // double-cancel reports false
  while (!queue.empty()) queue.pop().callback();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(EventQueueFifo, ReplayedScheduleIsIdentical) {
  // Build the same randomized schedule twice from the same seed; the pop
  // sequence (time, relative insertion index) must match exactly.
  auto run = [] {
    util::Xoshiro256 rng(4242);
    sim::EventQueue queue;
    std::vector<std::pair<sim::SimTime, int>> order;
    for (int i = 0; i < 200; ++i) {
      const auto when = static_cast<sim::SimTime>(rng.uniform_int(0, 15));
      queue.push(when, [&order, when, i] { order.emplace_back(when, i); });
    }
    while (!queue.empty()) queue.pop().callback();
    return order;
  };
  EXPECT_EQ(run(), run());
}

// ---- VGRID_AUDIT machinery --------------------------------------------------

#if defined(VGRID_AUDITS_ENABLED)
TEST(Audit, FailingConditionThrowsAuditError) {
  EXPECT_THROW(VGRID_AUDIT(1 == 2, "math broke: %d", 42), util::AuditError);
}

TEST(Audit, PassingConditionIsSilent) {
  EXPECT_NO_THROW(VGRID_AUDIT(2 + 2 == 4, "unused"));
}

TEST(Audit, MessageCarriesFileExpressionAndDetail) {
  try {
    VGRID_AUDIT(false, "detail %s %d", "xyz", 7);
    FAIL() << "VGRID_AUDIT did not throw";
  } catch (const util::AuditError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("false"), std::string::npos);
    EXPECT_NE(what.find("detail xyz 7"), std::string::npos);
    EXPECT_NE(what.find("test_determinism.cpp"), std::string::npos);
  }
}
#else
TEST(Audit, CompiledOutWhenDisabled) {
  // Must not evaluate the message arguments or the condition's side cost.
  EXPECT_NO_THROW(VGRID_AUDIT(false, "never formatted"));
}
#endif

// ---- same-seed identical-trace regressions ---------------------------------

core::RunnerConfig tiny_runner() {
  core::RunnerConfig config;
  config.repetitions = 2;
  return config;
}

std::string captured_guest_perf_trace() {
  std::string sink;
  double slowdown = 0.0;
  {
    const obs::ScopedTraceCapture capture(&sink);
    core::GuestPerfExperiment experiment(
        [] {
          return workloads::SevenZipBench(workloads::Bench7zConfig{})
              .make_program();
        },
        tiny_runner());
    slowdown = experiment.slowdown(vmm::profiles::vmplayer());
  }
  EXPECT_GT(slowdown, 1.0);
  EXPECT_FALSE(sink.empty());
  return sink;
}

TEST(SameSeedTrace, GuestPerfRunsAreByteIdentical) {
  const std::string first = captured_guest_perf_trace();
  const std::string second = captured_guest_perf_trace();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(first == second)
      << "same-seed guest-perf traces diverged (first difference at byte "
      << std::distance(first.begin(),
                       std::mismatch(first.begin(), first.end(),
                                     second.begin())
                           .first)
      << ")";
}

std::string captured_host_impact_trace() {
  std::string sink;
  core::SevenZipHostMetrics metrics;
  {
    const obs::ScopedTraceCapture capture(&sink);
    core::HostImpactConfig config;
    config.runner = tiny_runner();
    core::HostImpactExperiment experiment(config);
    const vmm::VmmProfile profile = vmm::profiles::vmplayer();
    metrics = experiment.run_7z(2, &profile);
  }
  EXPECT_GT(metrics.cpu_percent, 0.0);
  EXPECT_FALSE(sink.empty());
  return sink;
}

TEST(SameSeedTrace, HostImpactRunsAreByteIdentical) {
  const std::string first = captured_host_impact_trace();
  const std::string second = captured_host_impact_trace();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_TRUE(first == second)
      << "same-seed host-impact traces diverged (first difference at byte "
      << std::distance(first.begin(),
                       std::mismatch(first.begin(), first.end(),
                                     second.begin())
                           .first)
      << ")";
}

}  // namespace
}  // namespace vgrid
