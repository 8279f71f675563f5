// End-to-end wall time of a figure run — the macro benchmark. Fig5 (the
// NBench MEM index across environments) exercises scenario construction,
// the VMM overhead model, the scheduler and the repetition engine in one
// number, so a regression anywhere in the stack shows up here even when
// the micro benches miss it. Ops = figure rows x repetitions, i.e.
// ops/sec is "measured cells per second".

#include "core/experiments.hpp"
#include "perf_harness.hpp"

namespace vgrid::perf {

void register_fig5_bench(Suite& suite) {
  suite.add("core.fig5.end_to_end", [](const BenchConfig& config) {
    core::RunnerConfig runner =
        core::figure_runner_config(config.scenario);
    runner.repetitions = config.quick ? 2 : 5;
    runner.jobs = config.jobs;
    const core::FigureResult figure =
        core::fig5_mem_index(config.scenario, runner);
    return static_cast<double>(figure.rows.size()) * runner.repetitions;
  });
}

}  // namespace vgrid::perf
