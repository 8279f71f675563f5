#include "core/testbed.hpp"

#include "obs/context.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "util/error.hpp"

namespace vgrid::core {

hw::MachineConfig paper_machine_config() {
  // The embedded `paper` scenario owns the paper's hardware constants
  // (Core 2 Duo E6600, 2x2.40 GHz, 1 GB DDR2); parsing it once keeps
  // this function and the scenario text from drifting apart.
  // Desktop SATA disk and the 100 Mbps Fast Ethernet LAN are the hw
  // defaults; the NIC's protocol efficiency is calibrated so the native
  // NetBench run lands on the paper's 97.60 Mbps.
  return scenario::paper().machine;
}

namespace {
// Repeating sim-time sampler tick: scrapes the task's ambient Registry
// into its ambient obs::Timeseries every interval of SIMULATED time.
// Re-arms only while the simulation processed other events since the
// previous tick, so the timer self-terminates when the workload finishes
// (or deadlocks) and can never defeat the pending_events()==0 deadlock
// check in run_until_done/run_all. The capture fits the event queue's
// 64-byte inline arena slot.
struct SamplerTick {
  sim::Simulator* simulator;
  obs::Timeseries* series;
  obs::Registry* registry;
  sim::SimDuration interval;
  std::uint64_t processed_at_arm;

  void operator()() const {
    series->sample(*registry, simulator->now() / 1'000'000);
    const std::uint64_t processed = simulator->processed_events();
    // processed_ is bumped before the callback runs, so a delta of one
    // means this tick was the only event since it was armed.
    if (processed - processed_at_arm <= 1) return;
    simulator->schedule(
        interval, SamplerTick{simulator, series, registry, interval,
                              processed});
  }
};
}  // namespace

sim::EventQueue::Storage Testbed::take_storage(TestbedArena* arena) {
  return arena != nullptr ? arena->take() : sim::EventQueue::Storage{};
}

Testbed::Testbed(const scenario::Scenario& scenario, TestbedArena* arena)
    : Testbed(scenario.machine, scenario.scheduler, scenario.host_os, arena) {}

Testbed::Testbed(hw::MachineConfig machine_config,
                 os::SchedulerConfig scheduler_config, HostOs host_os,
                 TestbedArena* arena)
    : arena_(arena),
      simulator_(take_storage(arena)),
      machine_(simulator_, machine_config, &tracer_),
      host_os_(host_os) {
  const obs::Context sinks = obs::context();
  if (sinks.trace_capture != nullptr) tracer_.enable(true);
  // Time-resolved sampling: when this thread has both a Timeseries and a
  // Registry installed, take the t=0 baseline scrape and arm the
  // repeating sampler (see obs/timeseries.hpp for the quartet contract).
  obs::Timeseries* timeseries = sinks.timeseries;
  obs::Registry* registry = sinks.registry;
  if (timeseries != nullptr && registry != nullptr &&
      timeseries->config().interval_ms > 0) {
    timeseries->sample(*registry, 0);
    const sim::SimDuration interval = sim::from_millis(
        static_cast<double>(timeseries->config().interval_ms));
    simulator_.schedule(
        interval, SamplerTick{&simulator_, timeseries, registry, interval,
                              simulator_.processed_events()});
  }
  if (host_os == HostOs::kLinuxCfs) {
    scheduler_ = &scheduler_storage_.emplace<os::FairScheduler>(
        machine_, scheduler_config);
  } else {
    scheduler_ = &scheduler_storage_.emplace<os::PriorityScheduler>(
        machine_, scheduler_config);
  }
}

Testbed::~Testbed() {
  if (std::string* capture = obs::context().trace_capture) {
    capture->append("=== testbed trace ===\n");
    capture->append(tracer_.dump());
  }
  if (arena_ != nullptr) {
    arena_->recycle(simulator_.release_queue_storage());
  }
}

double Testbed::run_until_done(const os::HostThread& thread) {
  while (!thread.done()) {
    if (simulator_.pending_events() == 0) {
      throw util::SimulationError(
          "testbed deadlock: no pending events but thread '" +
          thread.name() + "' is not done");
    }
    simulator_.step();
  }
  return sim::to_seconds(thread.finish_time() - thread.start_time());
}

void Testbed::run_all() {
  while (!scheduler_->all_done()) {
    if (simulator_.pending_events() == 0) {
      throw util::SimulationError(
          "testbed deadlock: threads remain but no events pending");
    }
    simulator_.step();
  }
}

}  // namespace vgrid::core
