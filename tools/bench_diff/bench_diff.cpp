#include "bench_diff/bench_diff.hpp"

#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "diff_common/diff_common.hpp"

namespace vgrid::tools {
namespace {

std::string format_ns(std::int64_t ns) {
  std::ostringstream out;
  if (ns >= 1'000'000'000) {
    out << static_cast<double>(ns) / 1e9 << " s";
  } else if (ns >= 1'000'000) {
    out << static_cast<double>(ns) / 1e6 << " ms";
  } else if (ns >= 1'000) {
    out << static_cast<double>(ns) / 1e3 << " us";
  } else {
    out << ns << " ns";
  }
  return out.str();
}

}  // namespace

BenchDoc parse_bench(const std::string& text) {
  const JsonValue root = parse_json(text);
  const JsonValue& version = field(root, "vgrid_bench_version");
  if (version.as_int() != 1) {
    fail_at(version, "unsupported vgrid_bench_version " +
                         std::to_string(version.integer));
  }
  BenchDoc doc;
  doc.version = 1;
  const JsonValue& host = field(root, "host");
  doc.compiler = field(host, "compiler").as_string();
  doc.cores = field(host, "cores").as_int();
  // quick lives in the host fingerprint; older committed trajectory
  // entries carry it at top level.
  if (host.as_object().count("quick") != 0) {
    doc.quick = field(host, "quick").as_bool();
  } else {
    doc.quick = field(root, "quick").as_bool();
  }
  const JsonValue& scenario = field(root, "scenario");
  doc.scenario_name = field(scenario, "name").as_string();
  doc.scenario_hash = field(scenario, "hash").as_string();
  for (const JsonValue& entry : field(root, "benchmarks").as_array()) {
    BenchEntry bench;
    bench.name = field(entry, "name").as_string();
    const std::int64_t reps = field(entry, "reps").as_int();
    bench.ops = field(entry, "ops").as_double();
    bench.median_ns = field(entry, "median_ns").as_int();
    bench.min_ns = field(entry, "min_ns").as_int();
    bench.ops_per_sec = field(entry, "ops_per_sec").as_double();
    if (bench.name.empty() || bench.median_ns <= 0 || reps <= 0 ||
        reps > std::numeric_limits<int>::max()) {
      fail_at(entry, "malformed benchmark entry '" + bench.name + "'");
    }
    bench.reps = static_cast<int>(reps);
    doc.benchmarks.push_back(std::move(bench));
  }
  return doc;
}

BenchDiffReport diff_bench(const BenchDoc& baseline,
                           const BenchDoc& candidate,
                           const BenchDiffOptions& options) {
  BenchDiffReport report;
  auto note = [&](const std::string& name, const std::string& detail,
                  bool regression) {
    report.findings.push_back({name, detail, regression});
    if (regression) report.gate_failed = true;
  };

  // Document-level compatibility notes: never failures, always visible.
  if (baseline.quick) {
    note("(document)",
         "baseline was recorded in --quick mode: its workload sizes are "
         "reduced, so its medians are not a trustworthy trajectory entry "
         "— regenerate the committed baseline with a full run",
         false);
  }
  if (baseline.quick != candidate.quick) {
    note("(document)",
         std::string("quick-mode mismatch: baseline ") +
             (baseline.quick ? "quick" : "full") + " vs candidate " +
             (candidate.quick ? "quick" : "full") +
             " — workload sizes differ, timings are apples-to-oranges",
         false);
  }
  if (baseline.scenario_hash != candidate.scenario_hash) {
    note("(document)",
         "scenario mismatch: baseline " + baseline.scenario_name + " (" +
             baseline.scenario_hash + ") vs candidate " +
             candidate.scenario_name + " (" + candidate.scenario_hash + ")",
         false);
  }
  if (baseline.compiler != candidate.compiler ||
      baseline.cores != candidate.cores) {
    note("(document)",
         "host fingerprint differs: baseline " + baseline.compiler + "/" +
             std::to_string(baseline.cores) + " cores vs candidate " +
             candidate.compiler + "/" + std::to_string(candidate.cores) +
             " cores",
         false);
  }

  std::map<std::string, const BenchEntry*> in_candidate;
  for (const BenchEntry& entry : candidate.benchmarks) {
    in_candidate[entry.name] = &entry;
  }
  std::map<std::string, const BenchEntry*> in_baseline;
  for (const BenchEntry& entry : baseline.benchmarks) {
    in_baseline[entry.name] = &entry;
  }

  for (const BenchEntry& base : baseline.benchmarks) {
    const auto it = in_candidate.find(base.name);
    if (it == in_candidate.end()) {
      note(base.name, "missing from candidate (coverage shrank)", true);
      continue;
    }
    const BenchEntry& cand = *it->second;
    const double band =
        static_cast<double>(base.median_ns) * (1.0 + options.rel_tol) +
        static_cast<double>(options.abs_ns);
    if (static_cast<double>(cand.median_ns) > band) {
      std::ostringstream detail;
      detail << "median " << format_ns(cand.median_ns) << " vs baseline "
             << format_ns(base.median_ns) << " ("
             << static_cast<double>(cand.median_ns) /
                    static_cast<double>(base.median_ns)
             << "x, band " << format_ns(static_cast<std::int64_t>(band))
             << ")";
      note(base.name, detail.str(), true);
    } else if (static_cast<double>(cand.median_ns) * (1.0 + options.rel_tol) +
                   static_cast<double>(options.abs_ns) <
               static_cast<double>(base.median_ns)) {
      std::ostringstream detail;
      detail << "improved: median " << format_ns(cand.median_ns)
             << " vs baseline " << format_ns(base.median_ns)
             << " — consider refreshing the committed baseline";
      note(base.name, detail.str(), false);
      ++report.improvements.count;
      const double speedup = static_cast<double>(base.median_ns) /
                             static_cast<double>(cand.median_ns);
      if (speedup > report.improvements.best_speedup) {
        report.improvements.best_speedup = speedup;
        report.improvements.best_name = base.name;
      }
    }
  }
  for (const BenchEntry& cand : candidate.benchmarks) {
    if (in_baseline.find(cand.name) == in_baseline.end()) {
      note(cand.name, "new benchmark (not in baseline)", false);
    }
  }
  for (const std::string& name : options.require) {
    if (in_candidate.find(name) == in_candidate.end()) {
      note(name, "required benchmark missing from candidate", true);
    }
  }
  return report;
}

}  // namespace vgrid::tools
