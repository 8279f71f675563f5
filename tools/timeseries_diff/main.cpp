// timeseries_diff CLI — compare two vgrid timeseries exports.
//
//   timeseries_diff a.json b.json [--abs-tol N] [--rel-tol F]
//
// Exit status: 0 exports agree, 1 differences found, 2 usage/parse error.
// A tolerance must be a plain finite number >= 0 ("25%" is a usage
// error). With zero tolerances (the default) this is the determinism
// gate: any value mismatch is a failure. Non-zero tolerances turn it into a
// regression check between runs of different seeds or machines.

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "timeseries_diff/timeseries_diff.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: timeseries_diff <a.json> <b.json> [--abs-tol N] "
               "[--rel-tol F]\n");
  return 2;
}

using vgrid::tools::read_file;

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  vgrid::tools::Tolerance options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if ((arg == "--abs-tol" || arg == "--rel-tol") && i + 1 < argc) {
      const std::optional<double> tol =
          vgrid::tools::parse_tolerance(argv[++i]);
      if (!tol) return usage();
      (arg == "--abs-tol" ? options.abs_tol : options.rel_tol) = *tol;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.size() != 2) return usage();
  try {
    const auto a = vgrid::tools::parse_timeseries(read_file(files[0]));
    const auto b = vgrid::tools::parse_timeseries(read_file(files[1]));
    const auto differences = vgrid::tools::diff_timeseries(a, b, options);
    if (differences.empty()) {
      std::printf("timeseries_diff: %s and %s agree (%zu series, "
                  "%llu samples, abs-tol %g, rel-tol %g)\n",
                  files[0].c_str(), files[1].c_str(), a.series.size(),
                  static_cast<unsigned long long>(a.samples),
                  options.abs_tol, options.rel_tol);
      return 0;
    }
    for (const auto& difference : differences) {
      std::fprintf(stderr, "timeseries_diff: %s: %s\n",
                   difference.series.c_str(), difference.detail.c_str());
    }
    std::fprintf(stderr, "timeseries_diff: %zu difference(s)\n",
                 differences.size());
    return 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "timeseries_diff: %s\n", error.what());
    return 2;
  }
}
