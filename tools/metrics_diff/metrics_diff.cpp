#include "metrics_diff/metrics_diff.hpp"

#include <sstream>
#include <utility>

namespace vgrid::tools {
namespace {

ParsedInstrument parse_instrument(const JsonValue& value) {
  ParsedInstrument instrument;
  instrument.name = field(value, "name").as_string();
  for (const auto& [key, label] : field(value, "labels").as_object()) {
    instrument.labels[key] = label.as_string();
  }
  const JsonValue& type = field(value, "type");
  instrument.type = type.as_string();
  if (instrument.type == "counter") {
    instrument.value = field(value, "value").as_int();
  } else if (instrument.type == "gauge") {
    instrument.value = field(value, "value").as_int();
    instrument.agg = field(value, "agg").as_string();
    instrument.set = field(value, "set").as_bool();
  } else if (instrument.type == "histogram") {
    for (const JsonValue& bound : field(value, "bounds").as_array()) {
      instrument.bounds.push_back(bound.as_int());
    }
    for (const JsonValue& count : field(value, "counts").as_array()) {
      instrument.counts.push_back(
          static_cast<std::uint64_t>(count.as_int()));
    }
    instrument.count =
        static_cast<std::uint64_t>(field(value, "count").as_int());
    instrument.sum = field(value, "sum").as_int();
    instrument.min = field(value, "min").as_int();
    instrument.max = field(value, "max").as_int();
    instrument.p50 = field(value, "p50").as_int();
    instrument.p90 = field(value, "p90").as_int();
    instrument.p99 = field(value, "p99").as_int();
  } else {
    fail_at(type, "unknown instrument type '" + instrument.type + "'");
  }
  return instrument;
}

std::string instrument_id(const ParsedInstrument& instrument) {
  std::string id = instrument.name;
  if (!instrument.labels.empty()) {
    id += "{";
    bool first = true;
    for (const auto& [key, value] : instrument.labels) {
      if (!first) id += ",";
      first = false;
      id += key + "=" + value;
    }
    id += "}";
  }
  return id;
}

}  // namespace

ParsedSnapshot parse_snapshot(const std::string& text) {
  const JsonValue root = parse_json(text);
  const JsonValue& version = field(root, "vgrid_metrics_version");
  ParsedSnapshot snapshot;
  if (version.as_int() != 1) {
    fail_at(version, "unsupported vgrid_metrics_version " +
                         std::to_string(version.integer));
  }
  snapshot.version = 1;
  for (const JsonValue& instrument : field(root, "instruments").as_array()) {
    snapshot.instruments.push_back(parse_instrument(instrument));
  }
  return snapshot;
}

std::vector<Difference> diff_snapshots(const ParsedSnapshot& a,
                                       const ParsedSnapshot& b,
                                       const Tolerance& tolerance) {
  std::vector<Difference> differences;
  // Index both sides by (name, labels); std::map keeps the report sorted.
  using Id = std::pair<std::string, std::map<std::string, std::string>>;
  std::map<Id, const ParsedInstrument*> left;
  std::map<Id, const ParsedInstrument*> right;
  for (const auto& instrument : a.instruments) {
    left[{instrument.name, instrument.labels}] = &instrument;
  }
  for (const auto& instrument : b.instruments) {
    right[{instrument.name, instrument.labels}] = &instrument;
  }

  auto note = [&](const ParsedInstrument& instrument,
                  const std::string& detail) {
    differences.push_back({instrument_id(instrument), detail});
  };
  auto compare_scalar = [&](const ParsedInstrument& instrument,
                            const std::string& what, std::int64_t lhs,
                            std::int64_t rhs) {
    if (tolerance.within(lhs, rhs)) return;
    std::ostringstream detail;
    detail << what << " " << lhs << " vs " << rhs;
    note(instrument, detail.str());
  };

  for (const auto& [id, lhs] : left) {
    const auto it = right.find(id);
    if (it == right.end()) {
      note(*lhs, "only in first snapshot");
      continue;
    }
    const ParsedInstrument& rhs = *it->second;
    if (lhs->type != rhs.type) {
      note(*lhs, "type " + lhs->type + " vs " + rhs.type);
      continue;
    }
    if (lhs->type == "counter") {
      compare_scalar(*lhs, "value", lhs->value, rhs.value);
    } else if (lhs->type == "gauge") {
      if (lhs->agg != rhs.agg) {
        note(*lhs, "agg " + lhs->agg + " vs " + rhs.agg);
        continue;
      }
      if (lhs->set != rhs.set) {
        note(*lhs, std::string("set ") + (lhs->set ? "true" : "false") +
                       " vs " + (rhs.set ? "true" : "false"));
        continue;
      }
      compare_scalar(*lhs, "value", lhs->value, rhs.value);
    } else {
      // Histogram: the bucket layout is schema, not noise — exact match
      // required; everything else honours the tolerance band.
      if (lhs->bounds != rhs.bounds) {
        note(*lhs, "bucket bounds differ");
        continue;
      }
      for (std::size_t i = 0; i < lhs->counts.size(); ++i) {
        if (i < rhs.counts.size() &&
            !tolerance.within(static_cast<std::int64_t>(lhs->counts[i]),
                              static_cast<std::int64_t>(rhs.counts[i]))) {
          std::ostringstream detail;
          detail << "bucket[" << i << "] " << lhs->counts[i] << " vs "
                 << rhs.counts[i];
          note(*lhs, detail.str());
        }
      }
      compare_scalar(*lhs, "count", static_cast<std::int64_t>(lhs->count),
                     static_cast<std::int64_t>(rhs.count));
      compare_scalar(*lhs, "sum", lhs->sum, rhs.sum);
      compare_scalar(*lhs, "min", lhs->min, rhs.min);
      compare_scalar(*lhs, "max", lhs->max, rhs.max);
      // Derived percentiles are functions of the buckets, but a reader of
      // the diff wants to see tail movement called out directly — compare
      // them under the same band as the raw aggregates.
      compare_scalar(*lhs, "p50", lhs->p50, rhs.p50);
      compare_scalar(*lhs, "p90", lhs->p90, rhs.p90);
      compare_scalar(*lhs, "p99", lhs->p99, rhs.p99);
    }
  }
  for (const auto& [id, rhs] : right) {
    if (left.find(id) == left.end()) {
      note(*rhs, "only in second snapshot");
    }
  }
  return differences;
}

}  // namespace vgrid::tools
