#pragma once
// metrics_diff — compare two vgrid metrics snapshots (the canonical JSON
// written by `--metrics-out` / `vgrid metrics --out`) with optional
// tolerance bands.
//
// The snapshot (obs::Registry::snapshot_json: a versioned header and one
// instrument object per line, sorted by name/labels) is read as one JSON
// document by the shared reader in tools/diff_common; this file only walks
// the parsed tree, so every parse or schema error is line-qualified.
//
// Comparison semantics:
//  - instruments present in only one snapshot are always differences;
//  - counter/gauge values and histogram count/sum/min/max compare within
//    the tolerance band (tools::Tolerance):
//    |a - b| <= abs_tol + rel_tol * max(|a|, |b|);
//  - histogram bucket layouts must match exactly (a layout change is a
//    schema change, not noise), bucket counts use the band;
//  - abs_tol = rel_tol = 0 (the default) demands equal integers, exact at
//    any magnitude — the determinism gate.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "diff_common/diff_common.hpp"

namespace vgrid::tools {

struct ParsedInstrument {
  std::string name;
  std::map<std::string, std::string> labels;
  std::string type;  // "counter" | "gauge" | "histogram"
  // counter / gauge
  std::int64_t value = 0;
  std::string agg;    // gauges only
  bool set = false;   // gauges only
  // histogram
  std::vector<std::int64_t> bounds;
  std::vector<std::uint64_t> counts;  // bounds.size() + 1 (+Inf last)
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  // Derived quantile estimates (bucket interpolation) — compared under the
  // same tolerance band as the raw aggregates.
  std::int64_t p50 = 0;
  std::int64_t p90 = 0;
  std::int64_t p99 = 0;
};

struct ParsedSnapshot {
  int version = 0;
  // Sorted by (name, labels) — the order snapshot_json writes them in.
  std::vector<ParsedInstrument> instruments;
};

/// Parses a snapshot document. Throws std::runtime_error with a
/// line-qualified message on malformed input.
ParsedSnapshot parse_snapshot(const std::string& text);

struct Difference {
  std::string instrument;  // "name{k=v,...}"
  std::string detail;      // human-readable mismatch description
};

/// All differences between two snapshots under the tolerance band; empty
/// means the snapshots agree.
std::vector<Difference> diff_snapshots(const ParsedSnapshot& a,
                                       const ParsedSnapshot& b,
                                       const Tolerance& tolerance);

}  // namespace vgrid::tools
