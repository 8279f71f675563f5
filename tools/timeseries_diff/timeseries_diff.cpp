#include "timeseries_diff/timeseries_diff.hpp"

#include <sstream>
#include <tuple>
#include <utility>

namespace vgrid::tools {

namespace {

ParsedSeries parse_series(const JsonValue& value) {
  ParsedSeries series;
  series.name = field(value, "name").as_string();
  for (const auto& [key, label] : field(value, "labels").as_object()) {
    series.labels[key] = label.as_string();
  }
  series.track = field(value, "track").as_string();
  series.total_points =
      static_cast<std::uint64_t>(field(value, "total_points").as_int());
  series.evicted = static_cast<std::uint64_t>(field(value, "evicted").as_int());
  series.last = field(value, "last").as_int();
  series.min = field(value, "min").as_int();
  series.max = field(value, "max").as_int();
  for (const JsonValue& point : field(value, "points").as_array()) {
    const std::vector<JsonValue>& pair = point.as_array();
    if (pair.size() != 2) fail_at(point, "point is not a [t_ms,value] pair");
    series.points.emplace_back(pair[0].as_int(), pair[1].as_int());
  }
  return series;
}

std::string series_id(const ParsedSeries& series) {
  std::string id = series.name;
  if (!series.labels.empty()) {
    id += "{";
    bool first = true;
    for (const auto& [key, value] : series.labels) {
      if (!first) id += ",";
      first = false;
      id += key + "=" + value;
    }
    id += "}";
  }
  id += "/" + series.track;
  return id;
}

}  // namespace

ParsedTimeseries parse_timeseries(const std::string& text) {
  const JsonValue root = parse_json(text);
  const JsonValue& version = field(root, "vgrid_timeseries_version");
  if (version.as_int() != 1) {
    fail_at(version, "unsupported vgrid_timeseries_version " +
                         std::to_string(version.integer));
  }
  ParsedTimeseries parsed;
  parsed.version = 1;
  parsed.interval_ms = field(root, "interval_ms").as_int();
  parsed.ring_capacity =
      static_cast<std::uint64_t>(field(root, "ring_capacity").as_int());
  parsed.samples = static_cast<std::uint64_t>(field(root, "samples").as_int());
  parsed.evicted = static_cast<std::uint64_t>(field(root, "evicted").as_int());
  for (const JsonValue& series : field(root, "series").as_array()) {
    parsed.series.push_back(parse_series(series));
  }
  return parsed;
}

std::vector<TimeseriesDifference> diff_timeseries(
    const ParsedTimeseries& a, const ParsedTimeseries& b,
    const Tolerance& tolerance) {
  std::vector<TimeseriesDifference> differences;
  auto doc_note = [&](const std::string& detail) {
    differences.push_back({"(document)", detail});
  };

  // Header cadence and capacity are schema: a diff at a different
  // interval or ring size is comparing two different experiments.
  if (a.interval_ms != b.interval_ms) {
    doc_note("interval_ms " + std::to_string(a.interval_ms) + " vs " +
             std::to_string(b.interval_ms));
  }
  if (a.ring_capacity != b.ring_capacity) {
    doc_note("ring_capacity " + std::to_string(a.ring_capacity) + " vs " +
             std::to_string(b.ring_capacity));
  }
  if (a.samples != b.samples) {
    doc_note("samples " + std::to_string(a.samples) + " vs " +
             std::to_string(b.samples));
  }

  using Id = std::tuple<std::string, std::map<std::string, std::string>,
                        std::string>;
  std::map<Id, const ParsedSeries*> left;
  std::map<Id, const ParsedSeries*> right;
  for (const ParsedSeries& series : a.series) {
    left[{series.name, series.labels, series.track}] = &series;
  }
  for (const ParsedSeries& series : b.series) {
    right[{series.name, series.labels, series.track}] = &series;
  }

  auto note = [&](const ParsedSeries& series, const std::string& detail) {
    differences.push_back({series_id(series), detail});
  };
  auto compare_scalar = [&](const ParsedSeries& series,
                            const std::string& what, std::int64_t lhs,
                            std::int64_t rhs) {
    if (tolerance.within(lhs, rhs)) return;
    std::ostringstream detail;
    detail << what << " " << lhs << " vs " << rhs;
    note(series, detail.str());
  };

  for (const auto& [id, lhs] : left) {
    const auto it = right.find(id);
    if (it == right.end()) {
      note(*lhs, "only in first export");
      continue;
    }
    const ParsedSeries& rhs = *it->second;
    // Point count and timestamps are exact: a lost scrape or a shifted
    // clock is a determinism bug, never jitter the band should absorb.
    if (lhs->total_points != rhs.total_points) {
      note(*lhs, "total_points " + std::to_string(lhs->total_points) +
                     " vs " + std::to_string(rhs.total_points));
      continue;
    }
    if (lhs->points.size() != rhs.points.size()) {
      note(*lhs, "ring holds " + std::to_string(lhs->points.size()) +
                     " vs " + std::to_string(rhs.points.size()) +
                     " points");
      continue;
    }
    bool timestamps_ok = true;
    for (std::size_t i = 0; i < lhs->points.size(); ++i) {
      if (lhs->points[i].first != rhs.points[i].first) {
        std::ostringstream detail;
        detail << "point[" << i << "] t_ms " << lhs->points[i].first
               << " vs " << rhs.points[i].first;
        note(*lhs, detail.str());
        timestamps_ok = false;
        break;
      }
    }
    if (!timestamps_ok) continue;
    for (std::size_t i = 0; i < lhs->points.size(); ++i) {
      if (!tolerance.within(lhs->points[i].second, rhs.points[i].second)) {
        std::ostringstream detail;
        detail << "point[" << i << "] (t_ms " << lhs->points[i].first
               << ") value " << lhs->points[i].second << " vs "
               << rhs.points[i].second;
        note(*lhs, detail.str());
      }
    }
    compare_scalar(*lhs, "last", lhs->last, rhs.last);
    compare_scalar(*lhs, "min", lhs->min, rhs.min);
    compare_scalar(*lhs, "max", lhs->max, rhs.max);
  }
  for (const auto& [id, rhs] : right) {
    if (left.find(id) == left.end()) {
      note(*rhs, "only in second export");
    }
  }
  return differences;
}

}  // namespace vgrid::tools
