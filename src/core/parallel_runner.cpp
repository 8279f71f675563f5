#include "core/parallel_runner.hpp"

#include <vector>

#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace vgrid::core {

ParallelRunner::ParallelRunner(RunnerConfig config)
    : config_(config), pool_(config.jobs) {
  if (config_.repetitions < 1) {
    throw util::ConfigError("ParallelRunner: repetitions >= 1 required");
  }
}

stats::Summary ParallelRunner::measure(
    const std::function<double(double scale)>& fn,
    const std::atomic<bool>* cancel) {
  const std::uint64_t call = measure_calls_++;
  PROF_SCOPE("core.parallel_runner.measure");
  obs::ScopedSpan span(util::format(
      "runner.measure %llu", static_cast<unsigned long long>(call)));
  for (int i = 0; i < config_.warmup; ++i) {
    (void)fn(1.0);
  }
  // Preallocated slot per repetition: completion order cannot reorder the
  // sample vector, so the Summary is bit-equal to a serial loop's.
  std::vector<double> samples(
      static_cast<std::size_t>(config_.repetitions));
  pool_.run(
      samples.size(),
      [&](std::size_t i) {
        PROF_SCOPE("core.runner.repetition");
        samples[i] =
            fn(repetition_scale(config_, call, static_cast<int>(i)));
      },
      cancel, "rep");
  if (config_.tukey_outlier_filter) {
    const auto filtered = stats::tukey_filter(samples);
    return stats::summarize(filtered);
  }
  return stats::summarize(samples);
}

}  // namespace vgrid::core
