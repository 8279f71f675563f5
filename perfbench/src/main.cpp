// vgrid benchmark program.
//
//   vgrid_perfbench --workload figures|fleet-journal|grid-closed-loop
//                   --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Untraced (--trace 0), a run prints the end-to-end metrics; traced
// (--trace 1), the per-layer ones, and FILE receives the spans, the
// obs::Registry snapshot and the TaskPool worker spans. Either way the last
// line of stdout is one JSON object: correct, attempted, failed, metrics.
// perfbench/README.md documents the workloads and metrics.

#include <cstdio>
#include <exception>
#include <string>

#include "bench_util.hpp"

namespace {

int usage(const char* what) {
  std::fprintf(stderr,
               "vgrid_perfbench: %s\nusage: vgrid_perfbench --workload "
               "figures|fleet-journal|grid-closed-loop --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n",
               what);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vgrid::perfbench;
  Options options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
      const std::string value = argv[++i];
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace is 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--trace-out") {
        options.trace_out = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (options.seconds <= 0.0) return usage("--seconds must be positive");

  Report report;
  try {
    if (options.workload == "figures") {
      run_figures(options, report);
    } else if (options.workload == "fleet-journal") {
      run_fleet_journal(options, report);
    } else if (options.workload == "grid-closed-loop") {
      run_grid_closed_loop(options, report);
    } else {
      return usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vgrid_perfbench: %s\n", error.what());
    return 1;
  }
  report.print(options);
  return 0;
}
