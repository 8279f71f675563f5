// Tests for the analysis additions: WorkloadMeter and the trace timeline
// report.

#include <gtest/gtest.h>

#include "core/testbed.hpp"
#include <filesystem>
#include <fstream>

#include "report/chrome_trace.hpp"
#include "report/timeline.hpp"
#include "workloads/matrix.hpp"
#include "workloads/meter.hpp"

namespace vgrid {
namespace {

// ---- WorkloadMeter ----------------------------------------------------------

TEST(Meter, ProfilesCpuBoundWorkload) {
  workloads::MatrixBenchmark bench(128);
  const auto profile = workloads::meter(bench);
  EXPECT_EQ(profile.workload, "matrix-128x128");
  EXPECT_GT(profile.native_wall_seconds, 0.0);
  EXPECT_GT(profile.implied_native_ips, 0.0);
  // CPU-bound: utilization near 1.
  EXPECT_GT(profile.cpu_utilization, 0.5);
  EXPECT_FALSE(workloads::describe(profile).empty());
}

TEST(Meter, SimBudgetMatchesWorkload) {
  workloads::MatrixBenchmark bench(64);
  const auto profile = workloads::meter(bench);
  EXPECT_DOUBLE_EQ(profile.simulated_instructions,
                   bench.simulated_instructions());
}

// ---- TimelineReport -----------------------------------------------------------

TEST(Timeline, SummarizesSchedulerTrace) {
  core::Testbed testbed;
  testbed.tracer().enable(true);
  os::ProgramBuilder a;
  a.compute(1e8, hw::mixes::idle_spin());
  a.disk_read(1024 * 1024);
  a.compute(1e8, hw::mixes::idle_spin());
  auto& thread = testbed.scheduler().spawn(
      "worker", os::PriorityClass::kNormal, a.build());
  (void)testbed.run_until_done(thread);

  const report::TimelineReport timeline(testbed.tracer().records());
  ASSERT_TRUE(timeline.activities().count("worker"));
  const auto& activity = timeline.activities().at("worker");
  EXPECT_GE(activity.schedules, 2u);  // re-placed after the disk block
  EXPECT_EQ(activity.blocks, 1u);
  EXPECT_EQ(activity.wakes, 1u);
  EXPECT_EQ(timeline.disk_ops(), 1u);
  EXPECT_NE(timeline.ascii().find("worker"), std::string::npos);
}

TEST(Timeline, StripChartRendersRows) {
  core::Testbed testbed;
  testbed.tracer().enable(true);
  for (int i = 0; i < 3; ++i) {
    os::ProgramBuilder builder;
    builder.compute(5e8, hw::mixes::idle_spin());
    testbed.scheduler().spawn("t" + std::to_string(i),
                              os::PriorityClass::kNormal, builder.build());
  }
  testbed.run_all();
  const report::TimelineReport timeline(testbed.tracer().records());
  const std::string chart = timeline.strip_chart(32);
  EXPECT_NE(chart.find("t0"), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);
}

TEST(Timeline, EmptyTraceIsHarmless) {
  const report::TimelineReport timeline({});
  EXPECT_TRUE(timeline.activities().empty());
  EXPECT_TRUE(timeline.strip_chart().empty());
}

// ---- Chrome trace export -------------------------------------------------------

TEST(ChromeTrace, EmitsWellFormedJsonArray) {
  std::vector<sim::TraceRecord> records;
  records.push_back({1000, sim::TraceKind::kSchedule, "worker", "core 0"});
  records.push_back({5000, sim::TraceKind::kPreempt, "worker", ""});
  records.push_back({6000, sim::TraceKind::kDiskOp, "disk",
                     "read 4096 bytes"});
  const std::string json = report::chrome_trace_json(records);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json[json.size() - 2], ']');
  // A duration event of 4 us for the worker slice.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":4.000"), std::string::npos);
  // An instant event for the disk op.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
}

TEST(ChromeTrace, EscapesHostileSubjects) {
  std::vector<sim::TraceRecord> records;
  records.push_back({1, sim::TraceKind::kCustom, "a\"b\\c\nd", "x\"y"});
  const std::string json = report::chrome_trace_json(records);
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd"), std::string::npos);
  EXPECT_EQ(json.find("a\"b"), std::string::npos);
}

TEST(ChromeTrace, FullSchedulerTraceExports) {
  core::Testbed testbed;
  testbed.tracer().enable(true);
  os::ProgramBuilder builder;
  builder.compute(2e8, hw::mixes::idle_spin());
  builder.disk_read(1024 * 1024);
  auto& thread = testbed.scheduler().spawn(
      "worker", os::PriorityClass::kNormal, builder.build());
  (void)testbed.run_until_done(thread);
  const auto path = std::filesystem::temp_directory_path() /
                    "vgrid-test-trace.json";
  report::write_chrome_trace(path.string(),
                             testbed.tracer().records());
  std::ifstream in(path);
  std::string content((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_NE(content.find("worker"), std::string::npos);
  std::filesystem::remove(path);
}

// ---- machine presets -------------------------------------------------------------

TEST(MachinePresets, SpanTheEraSensibly) {
  const auto paper = hw::machines::core2duo_e6600();
  const auto old = hw::machines::pentium4_class();
  const auto next = hw::machines::quadcore_class();
  EXPECT_EQ(paper.chip.cores, 2);
  EXPECT_EQ(old.chip.cores, 1);
  EXPECT_EQ(next.chip.cores, 4);
  EXPECT_LT(old.ram_bytes, paper.ram_bytes);
  EXPECT_GT(next.ram_bytes, paper.ram_bytes);
  // Despite the higher clock, the P4 is slower per-thread on every mix.
  const hw::CpuChip p4(old.chip);
  const hw::CpuChip c2d(paper.chip);
  for (const auto& mix : {hw::mixes::sevenzip(), hw::mixes::matrix()}) {
    EXPECT_LT(p4.native_ips(mix), c2d.native_ips(mix));
  }
}

TEST(MachinePresets, P4CannotHostTheGuest) {
  // 512 MB minus a realistic host working set cannot commit 300 MB twice;
  // a single VM fits, a second must fail.
  sim::Simulator simulator;
  hw::Machine machine(simulator, hw::machines::pentium4_class());
  EXPECT_TRUE(machine.commit_ram(300 * util::MiB));
  EXPECT_FALSE(machine.commit_ram(300 * util::MiB));
}

}  // namespace
}  // namespace vgrid
