#pragma once
// Repetition harness: measure fn(scale) `repetitions` times and summarize,
// with the repetitions executing concurrently on a TaskPool of
// `config.jobs` workers. Results are byte-identical to a serial loop over
// the repetitions for every jobs value:
//
//  - repetition i draws its input scale from the forked RNG stream
//    repetition_scale(config, call, i), a pure function of the config and
//    indices (util::Rng::fork) — no shared RNG is consumed in a
//    scheduling-dependent order;
//  - each sample lands in preallocated slot i, so stats::summarize sees
//    the exact same ordered vector as a serial loop;
//  - determinism-audit trace capture is reassembled in repetition order
//    by the TaskPool.
//
// Each repetition must be shared-nothing (build its own Testbed), which
// every experiment in core/ satisfies by construction.

#include <atomic>
#include <functional>

#include "core/runner.hpp"
#include "core/task_pool.hpp"
#include "stats/descriptive.hpp"

namespace vgrid::core {

class ParallelRunner {
 public:
  explicit ParallelRunner(RunnerConfig config = {});

  /// Measure fn(scale) `repetitions` times on the worker pool. Warmup runs
  /// execute serially on the calling thread and are discarded. If
  /// `cancel` is non-null and becomes true mid-run, the pool tears down
  /// (started repetitions finish, unstarted ones are skipped, workers
  /// join) and a util::SimulationError is thrown; the runner remains
  /// usable for subsequent measure() calls.
  stats::Summary measure(const std::function<double(double scale)>& fn,
                         const std::atomic<bool>* cancel = nullptr);

  const RunnerConfig& config() const noexcept { return config_; }

  /// Effective worker count (config.jobs, with 0 resolved to hardware).
  int jobs() const noexcept { return pool_.jobs(); }

 private:
  RunnerConfig config_;
  TaskPool pool_;
  std::uint64_t measure_calls_ = 0;
};

}  // namespace vgrid::core
