#pragma once
// Repetition settings of the paper's measurement methodology: every
// quantity is measured over repeated runs (the paper uses >= 50) on varied
// inputs, and reported as a full statistical summary. core::ParallelRunner
// executes them.

#include <algorithm>
#include <cstdint>

#include "util/rng.hpp"

namespace vgrid::core {

struct RunnerConfig {
  int repetitions = 50;     ///< the paper's floor
  int warmup = 0;           ///< discarded leading runs (native measurements)
  double input_jitter = 0.01;  ///< relative sigma of per-run input scaling
  std::uint64_t seed = 7777;
  bool tukey_outlier_filter = false;
  /// Worker count for ParallelRunner: 1 = serial execution on the
  /// calling thread, 0 = one worker per hardware thread. Any value yields
  /// byte-identical results (deterministic seed partitioning); jobs only
  /// changes wall-clock time.
  int jobs = 1;
};

/// Input-scale factor of repetition `repetition` within measure() call
/// number `measure_call` of a ParallelRunner built from `config`.
///
/// The RNG stream is partitioned two levels deep with util::Rng::fork:
/// each measure() call gets stream fork(seed, call) — so two successive
/// measure() calls on one runner draw *uncorrelated* jitter (they used to
/// re-seed identically and produce the same sequence) — and within a call
/// each repetition gets its own sub-stream fork(call_stream, i), so the
/// scale of repetition i is a pure function of (config, call, i) and does
/// not depend on which worker executes it or in what order. This is what
/// makes ParallelRunner byte-identical for every jobs value.
inline double repetition_scale(const RunnerConfig& config,
                               std::uint64_t measure_call,
                               int repetition) noexcept {
  util::Rng rng =
      util::Rng::fork(util::Rng::fork_seed(config.seed, measure_call),
                      static_cast<std::uint64_t>(repetition));
  return std::max(0.01, rng.normal(1.0, config.input_jitter));
}

}  // namespace vgrid::core
