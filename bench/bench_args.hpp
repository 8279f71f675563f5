#pragma once
// Common argv handling for the benches: --scenario NAME|FILE selects the
// testbed (default: the embedded `paper`), [repetitions] overrides the
// scenario's sweep default (the paper's 50), --jobs N sizes the parallel
// experiment engine's worker pool (default: one worker per hardware
// thread; --jobs 1 forces the legacy serial path), and --metrics-out FILE
// drops the obs registry snapshot (FILE JSON + FILE.prom Prometheus text)
// next to the CSV. Results and snapshots are byte-identical for any jobs
// value — the flag only changes wall-clock time.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "core/experiments.hpp"
#include "scenario/scenario.hpp"
#include "util/cli_args.hpp"

namespace vgrid::bench {

/// The command lines of the figure benches and of the other benches;
/// util::Args rejects any other flag.
inline constexpr std::string_view kFigureSynopsis =
    "[repetitions] [--scenario NAME|FILE] [--jobs N] [--metrics-out FILE]";
inline constexpr std::string_view kSynopsis = "[repetitions] [--jobs N]";

/// argv parsed against `synopsis`. An undeclared flag, a malformed --jobs,
/// or a [repetitions] that is not one positive integer ("5x" is not 5)
/// prints the synopsis and exits 2.
inline util::Args parse_args(int argc, char** argv,
                             std::string_view synopsis = kFigureSynopsis) {
  try {
    util::Args args(synopsis, argc, argv, 1);
    const auto& positional = args.positional();
    if (positional.size() > 1 ||
        (!positional.empty() &&
         util::parse_count<int>(positional[0]).value_or(0) < 1)) {
      throw util::UsageError("[repetitions] expects one positive integer");
    }
    (void)args.get_count<int>("jobs", 0);
    return args;
  } catch (const util::ConfigError& error) {
    std::fprintf(stderr, "%s: %s\nusage: %s %s\n", argv[0], error.what(),
                 argv[0], synopsis.data());
    std::exit(2);
  }
}

/// --scenario NAME|FILE (default `paper`). Throws util::ConfigError with
/// a precise "<source>:<line>:" diagnostic on malformed input.
inline scenario::Scenario scenario_from_args(int argc, char** argv) {
  return scenario::load(parse_args(argc, argv).get_or("scenario", "paper"));
}

/// `base` overridden by [repetitions] / --jobs (0 = hardware).
inline core::RunnerConfig runner_from(const util::Args& args,
                                      core::RunnerConfig base) {
  if (!args.positional().empty()) {
    base.repetitions = *util::parse_count<int>(args.positional()[0]);
  }
  base.jobs = args.get_count<int>("jobs", 0);
  return base;
}

/// A non-figure bench's repetitions: the paper's 50 unless overridden.
inline core::RunnerConfig runner_from_args(int argc, char** argv) {
  return runner_from(parse_args(argc, argv, kSynopsis),
                     core::figure_runner_config());
}

/// Repetition settings seeded from the scenario's [sweep] section, then
/// overridden by [repetitions] / --jobs as usual.
inline core::RunnerConfig runner_from_args(int argc, char** argv,
                                           const scenario::Scenario& scenario) {
  return runner_from(parse_args(argc, argv),
                     core::figure_runner_config(scenario));
}

/// --metrics-out FILE, or "" when the bench should not collect metrics.
inline std::string metrics_out_from_args(int argc, char** argv) {
  return parse_args(argc, argv).get_or("metrics-out", "");
}

}  // namespace vgrid::bench
