#pragma once
// timeseries_diff — compare two vgrid timeseries exports (the canonical
// JSON written by `vgrid timeseries --out` / obs::Timeseries::render_json)
// with optional tolerance bands. Thin sibling of metrics_diff: same CLI
// contract, same tolerance semantics, specialized to the time-resolved
// format.
//
// The export (a versioned header followed by one series object per line,
// sorted by name/labels/track) is read as one JSON document by the shared
// reader in tools/diff_common; this file only walks the parsed tree, so
// every parse or schema error is line-qualified.
//
// Comparison semantics:
//  - series present in only one export are always differences;
//  - the header cadence (interval_ms) and ring_capacity must match
//    exactly — they are schema, not noise;
//  - point COUNT per series must match exactly (a missing scrape is a
//    determinism bug, not jitter), point timestamps must match exactly
//    (sim time is logical), point VALUES compare within the band
//    |a - b| <= abs_tol + rel_tol * max(|a|, |b|) (tools::Tolerance), as
//    do the per-series last/min/max aggregates;
//  - abs_tol = rel_tol = 0 (the default) demands equal integers, exact at
//    any magnitude — the determinism gate.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "diff_common/diff_common.hpp"

namespace vgrid::tools {

struct ParsedSeries {
  std::string name;
  std::map<std::string, std::string> labels;
  std::string track;  // "delta" | "level" | "p50" | "p99"
  std::uint64_t total_points = 0;
  std::uint64_t evicted = 0;
  std::int64_t last = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  // Ring-resident points, oldest first: (t_ms, value).
  std::vector<std::pair<std::int64_t, std::int64_t>> points;
};

struct ParsedTimeseries {
  int version = 0;
  std::int64_t interval_ms = 0;
  std::uint64_t ring_capacity = 0;
  std::uint64_t samples = 0;
  std::uint64_t evicted = 0;
  // Sorted by (name, labels, track) — the order render_json writes them in.
  std::vector<ParsedSeries> series;
};

/// Parses a timeseries export. Throws std::runtime_error with a
/// line-qualified message on malformed input.
ParsedTimeseries parse_timeseries(const std::string& text);

struct TimeseriesDifference {
  std::string series;  // "name{k=v,...}/track" ("(document)" for headers)
  std::string detail;  // human-readable mismatch description
};

/// All differences between two exports under the tolerance band; empty
/// means the exports agree.
std::vector<TimeseriesDifference> diff_timeseries(
    const ParsedTimeseries& a, const ParsedTimeseries& b,
    const Tolerance& tolerance);

}  // namespace vgrid::tools
