// Property suite for the parallel experiment engine (core::TaskPool /
// core::ParallelRunner / the cross-testbed figure scheduler): for every
// figure workload and every worker count, a parallel run must be
// *byte-identical* to the serial one — numeric rows compared as hexfloats
// and the determinism-audit event-trace capture compared verbatim — plus
// the seed-partitioning primitives (util::Rng::fork) and the
// torn-down-mid-run cancellation path.

#include <atomic>
#include <cstdint>
#include <functional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "core/parallel_runner.hpp"
#include "core/runner.hpp"
#include "stats/descriptive.hpp"
#include "core/task_pool.hpp"
#include "core/testbed.hpp"
#include "obs/context.hpp"
#include "obs/event_log.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "report/chrome_trace.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace vgrid {
namespace {

/// The independent serial oracle for ParallelRunner: the repetition
/// methodology spelled out as a plain loop over repetition_scale for
/// measure() call number `call` — warmup runs discarded, the Tukey filter
/// applied when configured.
stats::Summary serial_measure(const core::RunnerConfig& config,
                              std::uint64_t call,
                              const std::function<double(double)>& fn) {
  for (int i = 0; i < config.warmup; ++i) (void)fn(1.0);
  std::vector<double> samples;
  for (int i = 0; i < config.repetitions; ++i) {
    samples.push_back(fn(core::repetition_scale(config, call, i)));
  }
  return stats::summarize(config.tukey_outlier_filter
                              ? stats::tukey_filter(samples)
                              : samples);
}

// ---- seed partitioning ------------------------------------------------------

TEST(RngFork, StreamsAreDistinctAndStable) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t stream = 0; stream < 256; ++stream) {
    const std::uint64_t forked = util::Rng::fork_seed(7777, stream);
    EXPECT_TRUE(seen.insert(forked).second)
        << "stream " << stream << " collides";
    // Pure function: same (seed, stream) -> same child seed, always.
    EXPECT_EQ(forked, util::Rng::fork_seed(7777, stream));
  }
  EXPECT_NE(util::Rng::fork_seed(1, 0), util::Rng::fork_seed(2, 0));
}

TEST(RngFork, ForkedGeneratorsMatchForkedSeeds) {
  util::Rng by_fork = util::Rng::fork(42, 3);
  util::Rng by_seed(util::Rng::fork_seed(42, 3));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(by_fork.next(), by_seed.next());
}

TEST(RepetitionScale, PureFunctionOfConfigCallAndIndex) {
  core::RunnerConfig config;
  for (int i = 0; i < 64; ++i) {
    const double scale = core::repetition_scale(config, 0, i);
    EXPECT_GT(scale, 0.0);
    EXPECT_EQ(scale, core::repetition_scale(config, 0, i));
  }
  // Distinct calls draw from distinct forked streams (the measure()
  // correlated-jitter fix): the sequences must not repeat.
  bool any_differs = false;
  for (int i = 0; i < 16; ++i) {
    if (core::repetition_scale(config, 0, i) !=
        core::repetition_scale(config, 1, i)) {
      any_differs = true;
    }
  }
  EXPECT_TRUE(any_differs);
}

TEST(RepetitionScale, SuccessiveMeasureCallsAreDecorrelated) {
  // A runner's two measure() calls must see different jitter sequences;
  // they used to re-seed from config_.seed each call and repeat the exact
  // same scales.
  core::RunnerConfig config;
  config.repetitions = 8;
  core::ParallelRunner runner(config);
  std::vector<double> first, second;
  runner.measure([&](double scale) {
    first.push_back(scale);
    return scale;
  });
  runner.measure([&](double scale) {
    second.push_back(scale);
    return scale;
  });
  ASSERT_EQ(first.size(), second.size());
  EXPECT_NE(first, second);
}

// ---- ParallelRunner == the serial oracle ------------------------------------

std::string summary_hex(const stats::Summary& summary) {
  return util::format("n=%zu mean=%a sd=%a min=%a max=%a med=%a p25=%a "
                      "p75=%a ci=%a",
                      summary.count, summary.mean, summary.stddev,
                      summary.min, summary.max, summary.median, summary.p25,
                      summary.p75, summary.ci95_half_width);
}

TEST(ParallelRunner, ByteIdenticalToSerialRunnerForEveryJobsValue) {
  core::RunnerConfig config;
  config.repetitions = 33;
  config.warmup = 2;
  config.tukey_outlier_filter = true;
  const auto fn = [](double scale) { return 3.5 * scale * scale + 0.25; };
  const std::string expected = summary_hex(serial_measure(config, 0, fn));
  for (const int jobs : {1, 2, 8, 0}) {
    core::RunnerConfig parallel_config = config;
    parallel_config.jobs = jobs;
    core::ParallelRunner parallel(parallel_config);
    EXPECT_EQ(summary_hex(parallel.measure(fn)), expected)
        << "--jobs " << jobs;
  }
}

TEST(ParallelRunner, CallCounterStaysInLockstepWithSerialRunner) {
  // Three successive measure() calls advance the fork stream in lockstep
  // with the serial oracle's call index.
  core::RunnerConfig config;
  config.repetitions = 9;
  config.jobs = 4;
  core::ParallelRunner parallel(config);
  const auto fn = [](double scale) { return 1.0 / scale; };
  for (std::uint64_t call = 0; call < 3; ++call) {
    EXPECT_EQ(summary_hex(parallel.measure(fn)),
              summary_hex(serial_measure(config, call, fn)))
        << "call " << call;
  }
}

TEST(ParallelRunner, RejectsBadConfig) {
  core::RunnerConfig config;
  config.repetitions = 0;
  EXPECT_THROW(core::ParallelRunner{config}, util::ConfigError);
}

// ---- every figure, every jobs value -----------------------------------------

struct FigureCase {
  const char* id;
  core::FigureResult (*fn)(core::RunnerConfig);
};

// Print the id, not gtest's raw-byte dump of ASLR-randomised pointers, so the
// discovered ctest names are stable.
void PrintTo(const FigureCase& figure, std::ostream* os) { *os << figure.id; }

constexpr FigureCase kFigures[] = {
    {"fig1", core::fig1_7z},            {"fig2", core::fig2_matrix},
    {"fig3", core::fig3_iobench},       {"fig4", core::fig4_netbench},
    {"fig5", core::fig5_mem_index},     {"fig6", core::fig6_int_fp_index},
    {"fig7", core::fig7_cpu_available}, {"fig8", core::fig8_mips_ratio},
};

/// Rows as hexfloats plus the full testbed event-trace capture — the same
/// digest `vgrid determinism-audit` byte-diffs.
std::string figure_digest(const FigureCase& figure,
                          const core::RunnerConfig& runner) {
  std::string stream;
  core::FigureResult result;
  {
    const obs::ScopedTraceCapture capture(&stream);
    result = figure.fn(runner);
  }
  for (const auto& row : result.rows) {
    stream += util::format("%s=%a\n", row.label.c_str(), row.measured);
  }
  return stream;
}

class FigureJobsProperty : public ::testing::TestWithParam<FigureCase> {};

TEST_P(FigureJobsProperty, ByteIdenticalAcrossWorkerCounts) {
  const FigureCase& figure = GetParam();
  core::RunnerConfig runner = core::figure_runner_config();
  runner.repetitions = 2;
  runner.jobs = 1;
  const std::string serial = figure_digest(figure, runner);
  ASSERT_FALSE(serial.empty());
  EXPECT_NE(serial.find("=== testbed trace ==="), std::string::npos)
      << "trace capture missing — the digest would not catch event skew";
  for (const int jobs : {2, 8, 0}) {
    runner.jobs = jobs;
    EXPECT_EQ(figure_digest(figure, runner), serial)
        << figure.id << " --jobs " << jobs;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFigures, FigureJobsProperty,
                         ::testing::ValuesIn(kFigures),
                         [](const auto& param_info) {
                           return std::string(param_info.param.id);
                         });

// ---- cancellation -----------------------------------------------------------

TEST(ParallelRunner, CancellationMidRunThrowsAndLeavesRunnerUsable) {
  core::RunnerConfig config;
  config.repetitions = 64;
  config.jobs = 2;
  core::ParallelRunner runner(config);
  std::atomic<bool> cancel{false};
  std::atomic<int> executed{0};
  EXPECT_THROW(runner.measure(
                   [&](double scale) {
                     if (executed.fetch_add(1) >= 5) cancel.store(true);
                     return scale;
                   },
                   &cancel),
               util::SimulationError);
  // Torn down, not wedged: the pool joined its workers and the runner
  // accepts the next measure() as if the cancelled call never happened...
  const stats::Summary summary = runner.measure([](double s) { return s; });
  EXPECT_EQ(summary.count, 64u);
  // ...except the call counter advanced, as for any completed call: the
  // next call is the third.
  const stats::Summary third =
      serial_measure(config, 2, [](double s) { return s; });
  EXPECT_EQ(summary_hex(runner.measure([](double s) { return s; })),
            summary_hex(third));
}

TEST(TaskPool, CancelledRunAppendsNothingToTraceCapture) {
  std::string stream;
  {
    const obs::ScopedTraceCapture capture(&stream);
    core::TaskPool pool(2);
    std::atomic<bool> cancel{true};  // torn down before any task starts
    EXPECT_THROW(pool.run(16,
                          [](std::size_t) {
                            obs::context().trace_capture->append("leaked\n");
                          },
                          &cancel),
                 util::SimulationError);
  }
  EXPECT_TRUE(stream.empty()) << stream;
}

TEST(TaskPool, TaskExceptionPropagatesLowestIndexDeterministically) {
  core::TaskPool pool(4);
  for (int attempt = 0; attempt < 4; ++attempt) {
    try {
      pool.run(32, [](std::size_t index) {
        if (index % 7 == 3) {  // 3, 10, 17, 24, 31 all throw
          throw util::SimulationError(util::format("task %zu", index));
        }
      });
      FAIL() << "expected a SimulationError";
    } catch (const util::SimulationError& error) {
      EXPECT_STREQ(error.what(), "task 3");
    }
  }
}

// ---- worker-span observability ----------------------------------------------

TEST(TaskPool, PublishesOneSpanPerTaskToTopLevelSink) {
  std::vector<report::WorkerSpan> spans;
  core::set_worker_span_capture(&spans);
  core::TaskPool pool(2);
  pool.run(12, [](std::size_t) {}, nullptr, "rep");
  core::set_worker_span_capture(nullptr);
  ASSERT_EQ(spans.size(), 12u);
  for (const auto& span : spans) {
    EXPECT_GE(span.worker, 0);
    EXPECT_LT(span.worker, 2);
    EXPECT_LE(span.start_ns, span.end_ns);
    EXPECT_EQ(span.label.rfind("rep", 0), 0u) << span.label;
  }
  const std::string json = report::worker_trace_json(spans);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("experiment-pool"), std::string::npos);
}

// ---- observability fan-out --------------------------------------------------

/// One pooled task's writes: a record into each of the five ambient sinks.
void write_every_sink(std::uint64_t id) {
  PROF_SCOPE("fanout.task");
  const obs::Context sinks = obs::context();
  sinks.registry->counter("fanout.calls").add();
  sinks.registry->gauge("fanout.last", {}, obs::Gauge::Agg::kLast)
      .set(static_cast<std::int64_t>(id));
  const auto t = static_cast<std::int64_t>(id);
  sinks.event_log->open_trace(id, t, "fanout");
  sinks.event_log->append_event(id, obs::EventKind::kCreated, t);
  sinks.event_log->close_trace(id);
  sinks.timeseries->sample(*sinks.registry, t);
  sinks.trace_capture->append(
      util::format("task %llu\n", static_cast<unsigned long long>(id)));
}

/// Every sink of a pooled run (with a nested pool per task), rendered.
std::vector<std::string> pooled_sinks(int jobs) {
  obs::Registry registry;
  obs::Profiler profiler;
  obs::EventLog journal;
  obs::Timeseries series;
  std::string trace;
  {
    const obs::ScopedContext scope(
        obs::Context{&registry, &profiler, &journal, &series, &trace});
    core::TaskPool pool(jobs);
    pool.run(12, [jobs](std::size_t i) {
      write_every_sink(i + 1);
      core::TaskPool nested(jobs);
      nested.run(3, [i](std::size_t j) { write_every_sink(100 + 10 * i + j); });
    });
  }
  std::string profile;
  for (const obs::Profiler::Node& node : profiler.nodes()) {
    profile += util::format("%s<%d x%llu\n", node.name.c_str(), node.parent,
                            static_cast<unsigned long long>(node.count));
  }
  return {registry.snapshot_json(), journal.render_journal(),
          series.render_json(), profile, trace};
}

TEST(TaskPool, FanOutMergesEverySinkInTaskOrderOrNotAtAll) {
  const std::vector<std::string> serial = pooled_sinks(1);
  EXPECT_NE(serial[0].find("\"fanout.calls\""), std::string::npos);
  EXPECT_NE(serial[4].find("task 100\ntask 101\ntask 102\ntask 2\n"),
            std::string::npos)
      << "nested tasks must merge into their parent task's slot in order";
  EXPECT_EQ(pooled_sinks(8), serial);

  // A failed run restores the caller's whole context and merges nothing.
  for (const int jobs : {1, 8}) {
    obs::Registry registry;
    obs::Profiler profiler;
    obs::EventLog journal;
    obs::Timeseries series;
    std::string trace;
    const obs::Context parent{&registry, &profiler, &journal, &series,
                              &trace};
    const obs::ScopedContext scope(parent);
    core::TaskPool pool(jobs);
    EXPECT_THROW(pool.run(8,
                          [](std::size_t i) {
                            write_every_sink(i + 1);
                            if (i == 5) throw util::SimulationError("boom");
                          }),
                 util::SimulationError);
    EXPECT_TRUE(obs::context() == parent) << "jobs " << jobs;
    EXPECT_EQ(registry.instrument_count(), 0u);
    EXPECT_TRUE(profiler.empty());
    EXPECT_EQ(journal.traces_opened(), 0u);
    EXPECT_EQ(series.samples_taken(), 0u);
    EXPECT_TRUE(trace.empty()) << trace;
  }
}

}  // namespace
}  // namespace vgrid
