#pragma once
// The simulated testbed: one physical machine + host OS scheduler wired to
// a fresh simulator. The default configuration is the embedded `paper`
// scenario (src/scenario/builtins.cpp) — the single source of truth for
// the paper's hardware; run `vgrid scenarios --show paper` for the exact
// values — and every experiment builds a fresh Testbed so runs are
// independent.
//
// Ownership is arena-friendly: the scheduler lives inline in the Testbed
// (a variant over the two concrete policies — no per-testbed heap
// allocation for it), and the event queue's backing store can be recycled
// across consecutive testbeds through a TestbedArena. A fleet run builds
// 100k single-host testbeds back to back; with an arena each host reuses
// the previous host's heap array, slot arena, and inline-callback arena
// (the three vectors inside sim::EventQueue::Storage) instead of
// re-growing them.

#include <string>
#include <variant>

#include "hw/machine.hpp"
#include "os/fair_scheduler.hpp"
#include "os/host_os.hpp"
#include "os/scheduler.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace vgrid::core {

/// The paper's hardware (§4): scenario::paper().machine.
hw::MachineConfig paper_machine_config();

/// Host OS flavour (paper's Windows XP vs the Linux-CFS extension) —
/// defined in the os layer, re-exported here for the experiment code.
using HostOs = os::HostOs;

/// Recyclable allocation pool for consecutive short-lived testbeds. One
/// arena belongs to one thread (a fleet shard); a Testbed constructed with
/// an arena takes the pooled event-queue storage and returns it at
/// destruction. Recycled storage is content-cleared on adoption, so
/// simulation results are byte-identical with or without an arena.
class TestbedArena {
 public:
  TestbedArena() = default;
  TestbedArena(const TestbedArena&) = delete;
  TestbedArena& operator=(const TestbedArena&) = delete;

  sim::EventQueue::Storage take() {
    sim::EventQueue::Storage taken = std::move(storage_);
    storage_ = sim::EventQueue::Storage{};
    return taken;
  }
  void recycle(sim::EventQueue::Storage storage) {
    storage_ = std::move(storage);
  }

 private:
  sim::EventQueue::Storage storage_;
};

/// Observability routing goes through the calling thread's obs::Context
/// (obs/context.hpp): with `trace_capture` set, a Testbed enables its
/// tracer at construction and appends the full trace dump to the capture
/// installed when it is destroyed — two same-seed runs must produce
/// byte-identical captures (`vgrid determinism-audit`); with both
/// `timeseries` and `registry` set, it arms the sim-time sampler.
/// core::TaskPool forks that context per task and merges in task order,
/// so the captured stream is independent of worker count.
class Testbed {
 public:
  explicit Testbed(hw::MachineConfig machine_config = paper_machine_config(),
                   os::SchedulerConfig scheduler_config = {},
                   HostOs host_os = HostOs::kWindowsXp,
                   TestbedArena* arena = nullptr);
  /// Build the machine, scheduler config and OS flavour from a scenario.
  explicit Testbed(const scenario::Scenario& scenario,
                   TestbedArena* arena = nullptr);
  ~Testbed();
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulator& simulator() noexcept { return simulator_; }
  sim::Tracer& tracer() noexcept { return tracer_; }
  hw::Machine& machine() noexcept { return machine_; }
  os::Scheduler& scheduler() noexcept { return *scheduler_; }
  HostOs host_os() const noexcept { return host_os_; }

  /// Run the simulation until `thread` finishes; returns its wall time in
  /// simulated seconds. Throws SimulationError on deadlock (no events
  /// while the thread is unfinished).
  double run_until_done(const os::HostThread& thread);

  /// Run until every spawned thread finished.
  void run_all();

 private:
  static sim::EventQueue::Storage take_storage(TestbedArena* arena);

  TestbedArena* arena_;
  sim::Simulator simulator_;
  sim::Tracer tracer_;
  hw::Machine machine_;
  HostOs host_os_;
  // The concrete scheduler lives inline — monostate only between the
  // member-init list and the emplace in the constructor body.
  std::variant<std::monostate, os::PriorityScheduler, os::FairScheduler>
      scheduler_storage_;
  os::Scheduler* scheduler_ = nullptr;
};

}  // namespace vgrid::core
