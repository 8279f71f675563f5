#pragma once
// Fixed-size worker pool for the parallel experiment engine. Each task is
// an independent, shared-nothing simulation (its own Testbed(s)); the pool
// only decides *where* a task runs, never *what* it computes, so results
// are byte-identical to a serial run regardless of worker count or
// completion order:
//
//  - outputs go into caller-preallocated slots indexed by task, never into
//    shared accumulators;
//  - the calling thread's observability sinks (obs::Context: metrics,
//    profile, journal, timeseries, determinism-audit trace capture) are
//    forked per task by obs::FanOut and merged in task order after a
//    successful run;
//  - a task's exception is recorded in its slot and the lowest-index one
//    is rethrown after all workers joined, so error reporting does not
//    depend on scheduling either.
//
// Nested pools (an experiment task that itself builds a ParallelRunner)
// execute inline on the calling worker — the top-level pool owns the
// hardware, and nesting never over-subscribes or deadlocks.

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "report/chrome_trace.hpp"

namespace vgrid::core {

/// Per-worker wall-clock span sink (thread-local, top-level runs only):
/// while non-null, every top-level TaskPool::run on this thread appends
/// one report::WorkerSpan per task after the run completes. Spans are
/// observability only (report::worker_trace_json); they never influence
/// measured values.
void set_worker_span_capture(std::vector<report::WorkerSpan>* sink);
std::vector<report::WorkerSpan>* worker_span_capture() noexcept;

class TaskPool {
 public:
  /// `jobs` <= 0 selects hardware_jobs().
  explicit TaskPool(int jobs = 0);

  /// std::thread::hardware_concurrency, floored at 1.
  static int hardware_jobs() noexcept;

  /// True while the calling thread is a TaskPool worker (nested run()
  /// calls then execute inline).
  static bool inside_worker() noexcept;

  int jobs() const noexcept { return jobs_; }

  /// Execute task(0..count) exactly once each on up to jobs() workers.
  /// Blocks until every started task finished. If `cancel` becomes true
  /// mid-run, unstarted tasks are skipped, workers are joined, and a
  /// util::SimulationError is thrown (torn-down-mid-run teardown: no
  /// partial output escapes — the caller's slots are simply abandoned and
  /// nothing merges into the caller's sinks). `label` prefixes the
  /// per-task worker spans.
  void run(std::size_t count, const std::function<void(std::size_t)>& task,
           const std::atomic<bool>* cancel = nullptr,
           const std::string& label = "task");

 private:
  int jobs_;
};

}  // namespace vgrid::core
