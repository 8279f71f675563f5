#pragma once
// bench_diff — compare two `BENCH_vgrid.json` documents (the canonical
// output of `vgrid bench`) and flag performance regressions.
//
// Comparison semantics (asymmetric by design — `baseline` is the trusted
// trajectory entry, `candidate` is the run under test):
//  - a benchmark present in baseline but missing from candidate is a
//    REGRESSION (coverage must never silently shrink);
//  - candidate.median_ns above baseline.median_ns * (1 + rel_tol) + abs_ns
//    is a REGRESSION; the abs_ns floor keeps microsecond-scale benches
//    from tripping the gate on scheduler jitter;
//  - new benchmarks in the candidate and improvements beyond the band are
//    NOTES, never failures — a PR that adds coverage or gets faster
//    passes;
//  - host-fingerprint / scenario / quick-mode mismatches are NOTES: the
//    numbers still compare (CI gates with a wide band for exactly this
//    reason), but the report says the comparison is apples-to-oranges.
//
// `gate_failed` is true iff any finding is a regression — the CI
// perf-smoke job and the ctest self-gate both key off it.

#include <cstdint>
#include <string>
#include <vector>

namespace vgrid::tools {

struct BenchEntry {
  std::string name;
  int reps = 0;
  double ops = 0.0;
  std::int64_t median_ns = 0;
  std::int64_t min_ns = 0;
  double ops_per_sec = 0.0;
};

struct BenchDoc {
  int version = 0;
  std::string compiler;
  std::int64_t cores = 0;
  bool quick = false;
  std::string scenario_name;
  std::string scenario_hash;
  std::vector<BenchEntry> benchmarks;  ///< document order
};

/// Parse a BENCH_vgrid.json document with the shared reader in
/// tools/diff_common. Throws std::runtime_error with a line-qualified
/// message on malformed input or an unsupported vgrid_bench_version.
BenchDoc parse_bench(const std::string& text);

struct BenchDiffOptions {
  double rel_tol = 0.25;          ///< allowed slowdown fraction on median_ns
  std::int64_t abs_ns = 50'000;   ///< absolute slack added to the band
  /// Benchmarks that MUST be present in the candidate (regression when
  /// missing, even if the baseline never had them) — CI uses this to
  /// assert that newly added coverage actually ran.
  std::vector<std::string> require;
};

struct BenchFinding {
  std::string name;    ///< benchmark name, or "(document)" for doc-level
  std::string detail;  ///< human-readable description
  bool regression = false;
};

/// Summary of benchmarks faster than baseline beyond the tolerance band —
/// surfaced as one block in CI logs so perf wins are visible, not just
/// regressions.
struct BenchImprovements {
  int count = 0;              ///< improved benchmarks
  std::string best_name;      ///< largest speedup (empty when count == 0)
  double best_speedup = 1.0;  ///< baseline.median_ns / candidate.median_ns
};

struct BenchDiffReport {
  std::vector<BenchFinding> findings;
  BenchImprovements improvements;
  bool gate_failed = false;  ///< any finding with regression == true
};

BenchDiffReport diff_bench(const BenchDoc& baseline,
                           const BenchDoc& candidate,
                           const BenchDiffOptions& options);

}  // namespace vgrid::tools
