// bench_diff CLI — compare two BENCH_vgrid.json documents.
//
//   bench_diff <baseline.json> <candidate.json>
//              [--rel-tol F] [--abs-ns N] [--gate] [--require NAME]...
//
// Exit status: 0 when no regression (notes are fine), 1 when --gate is
// set and a regression was found, 2 on usage/parse error. Without --gate
// the exit is always 0/2 — reporting mode for reading a trajectory.
// --rel-tol must be a plain finite number >= 0 and --abs-ns a whole
// number of nanoseconds >= 0: "--rel-tol 25%" is a usage error, not 25.
// --require NAME (repeatable) makes a candidate missing benchmark NAME a
// regression even when the baseline predates it — CI pins newly added
// coverage with it.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_diff/bench_diff.hpp"
#include "diff_common/diff_common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: bench_diff <baseline.json> <candidate.json> "
               "[--rel-tol F] [--abs-ns N] [--gate] [--require NAME]...\n");
  return 2;
}

using vgrid::tools::read_file;

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  vgrid::tools::BenchDiffOptions options;
  bool gate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--rel-tol" || arg == "--abs-ns") && i + 1 < argc) {
      const std::optional<double> tol =
          vgrid::tools::parse_tolerance(argv[++i]);
      if (!tol) return usage();
      if (arg == "--rel-tol") {
        options.rel_tol = *tol;
      } else if (*tol != std::floor(*tol) || *tol > 9.0e18) {
        return usage();  // not a whole int64 count of nanoseconds
      } else {
        options.abs_ns = static_cast<std::int64_t>(*tol);
      }
    } else if (arg == "--gate") {
      gate = true;
    } else if (arg == "--require" && i + 1 < argc) {
      options.require.emplace_back(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) return usage();
  try {
    const auto baseline = vgrid::tools::parse_bench(read_file(files[0]));
    const auto candidate = vgrid::tools::parse_bench(read_file(files[1]));
    const auto report =
        vgrid::tools::diff_bench(baseline, candidate, options);
    for (const auto& finding : report.findings) {
      std::fprintf(finding.regression ? stderr : stdout,
                   "bench_diff: %s: %s: %s\n",
                   finding.regression ? "REGRESSION" : "note",
                   finding.name.c_str(), finding.detail.c_str());
    }
    if (report.improvements.count > 0) {
      std::printf(
          "bench_diff: improvements: %d benchmark(s) faster than baseline; "
          "best %s at %.2fx\n",
          report.improvements.count, report.improvements.best_name.c_str(),
          report.improvements.best_speedup);
    }
    if (report.gate_failed) {
      std::fprintf(stderr,
                   "bench_diff: %s vs %s: gate %s (rel-tol %g, abs-ns "
                   "%lld)\n",
                   files[0].c_str(), files[1].c_str(),
                   gate ? "FAILED" : "would fail (no --gate)",
                   options.rel_tol,
                   static_cast<long long>(options.abs_ns));
      return gate ? 1 : 0;
    }
    std::printf(
        "bench_diff: %s vs %s: no regression across %zu baseline "
        "benchmark(s) (rel-tol %g, abs-ns %lld)\n",
        files[0].c_str(), files[1].c_str(),
        baseline.benchmarks.size(), options.rel_tol,
        static_cast<long long>(options.abs_ns));
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_diff: %s\n", error.what());
    return 2;
  }
}
