#include "obs/timeseries.hpp"

#include <algorithm>
#include <utility>

#include "util/strings.hpp"

namespace vgrid::obs {

namespace {

std::string labels_json(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += util::json_escape(key);
    out += "\":\"";
    out += util::json_escape(value);
    out += '"';
  }
  out += "}";
  return out;
}

}  // namespace

const char* track_kind_name(TrackKind kind) noexcept {
  switch (kind) {
    case TrackKind::kCounterDelta: return "delta";
    case TrackKind::kGaugeLevel: return "level";
    case TrackKind::kHistogramP50: return "p50";
    case TrackKind::kHistogramP99: return "p99";
  }
  return "?";
}

Timeseries::Timeseries() : Timeseries(Config{}) {}

Timeseries::Timeseries(Config config) : config_(config) {}

Timeseries::Series& Timeseries::series_locked(const std::string& name,
                                              const Labels& labels,
                                              TrackKind kind) {
  Series& series = series_[SeriesKey{name, labels, kind}];
  if (series.name.empty()) {
    series.name = name;
    series.labels = labels;
    series.kind = kind;
  }
  return series;
}

void Timeseries::push_point_locked(Series& series, Point point) {
  series.points.push_back(point);
  if (config_.ring_capacity > 0 &&
      series.points.size() > config_.ring_capacity) {
    series.points.pop_front();
    ++series.evicted;
    ++evicted_;
  }
}

void Timeseries::append_locked(Series& series, std::int64_t t_ms,
                               std::int64_t value) {
  if (series.total_points == 0) {
    series.min_value = value;
    series.max_value = value;
  } else {
    series.min_value = std::min(series.min_value, value);
    series.max_value = std::max(series.max_value, value);
  }
  series.last_value = value;
  ++series.total_points;
  ++points_;
  push_point_locked(series, Point{t_ms, value});
}

void Timeseries::sample(const Registry& registry, std::int64_t t_ms) {
  // Registry mutex first, then ours: the sampler mutex is a leaf — no
  // Timeseries method locks a Registry while holding it the other way.
  std::lock_guard<std::mutex> registry_lock(registry.mutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  ++samples_;
  for (const auto& [key, entry] : registry.instruments_) {
    if (entry.counter) {
      Series& series =
          series_locked(key.name, key.labels, TrackKind::kCounterDelta);
      const std::uint64_t raw = entry.counter->value();
      const auto delta = static_cast<std::int64_t>(raw - series.prev_raw_);
      series.prev_raw_ = raw;
      append_locked(series, t_ms, delta);
    } else if (entry.gauge) {
      Series& series =
          series_locked(key.name, key.labels, TrackKind::kGaugeLevel);
      append_locked(series, t_ms,
                    entry.gauge->ever_set() ? entry.gauge->value() : 0);
    } else if (entry.histogram) {
      append_locked(
          series_locked(key.name, key.labels, TrackKind::kHistogramP50),
          t_ms, entry.histogram->percentile(0.50));
      append_locked(
          series_locked(key.name, key.labels, TrackKind::kHistogramP99),
          t_ms, entry.histogram->percentile(0.99));
    }
  }
}

void Timeseries::merge_from(const Timeseries& other) {
  // Consistent copy of `other` first so both mutexes are never held at
  // once (same discipline as Registry::merge_from).
  std::map<SeriesKey, Series> other_series;
  std::uint64_t other_samples = 0;
  std::uint64_t other_points = 0;
  std::uint64_t other_evicted = 0;
  {
    std::lock_guard<std::mutex> lock(other.mutex_);
    other_series = other.series_;
    other_samples = other.samples_;
    other_points = other.points_;
    other_evicted = other.evicted_;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (drop_next_merge_) {
    drop_next_merge_ = false;
    return;
  }
  samples_ += other_samples;
  points_ += other_points;
  evicted_ += other_evicted;
  for (const auto& [key, src] : other_series) {
    Series& dst = series_locked(key.name, key.labels, key.kind);
    // Retained points replay through this ring in their original order;
    // the eviction-proof aggregates combine exactly, covering points the
    // source ring had already dropped.
    for (const Point& point : src.points) push_point_locked(dst, point);
    dst.evicted += src.evicted;
    if (src.total_points > 0) {
      if (dst.total_points == 0) {
        dst.min_value = src.min_value;
        dst.max_value = src.max_value;
      } else {
        dst.min_value = std::min(dst.min_value, src.min_value);
        dst.max_value = std::max(dst.max_value, src.max_value);
      }
      dst.last_value = src.last_value;
      dst.total_points += src.total_points;
    }
  }
}

void Timeseries::inject_dropped_merge_for_test() noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  drop_next_merge_ = true;
}

std::uint64_t Timeseries::samples_taken() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return samples_;
}

std::size_t Timeseries::series_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.size();
}

std::uint64_t Timeseries::points_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return points_;
}

std::uint64_t Timeseries::ring_churn() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evicted_;
}

std::vector<const Timeseries::Series*> Timeseries::series() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<const Series*> out;
  out.reserve(series_.size());
  for (const auto& [key, series] : series_) out.push_back(&series);
  return out;
}

const Timeseries::Series* Timeseries::find_series(const std::string& name,
                                                  const Labels& labels,
                                                  TrackKind kind) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(SeriesKey{name, labels, kind});
  return it == series_.end() ? nullptr : &it->second;
}

std::string Timeseries::render_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\n\"vgrid_timeseries_version\":1,\n";
  out += util::format("\"interval_ms\":%lld,\n",
                      static_cast<long long>(config_.interval_ms));
  out += util::format("\"ring_capacity\":%llu,\n",
                      static_cast<unsigned long long>(config_.ring_capacity));
  out += util::format("\"samples\":%llu,\n",
                      static_cast<unsigned long long>(samples_));
  out += util::format("\"evicted\":%llu,\n",
                      static_cast<unsigned long long>(evicted_));
  out += "\"series\":[\n";
  bool first = true;
  for (const auto& [key, series] : series_) {
    if (!first) out += ",\n";
    first = false;
    out += util::format(
        "{\"name\":\"%s\",\"labels\":%s,\"track\":\"%s\","
        "\"total_points\":%llu,\"evicted\":%llu,"
        "\"last\":%lld,\"min\":%lld,\"max\":%lld,\"points\":[",
        util::json_escape(series.name).c_str(),
        labels_json(series.labels).c_str(), track_kind_name(series.kind),
        static_cast<unsigned long long>(series.total_points),
        static_cast<unsigned long long>(series.evicted),
        static_cast<long long>(series.last_value),
        static_cast<long long>(series.min_value),
        static_cast<long long>(series.max_value));
    bool first_point = true;
    for (const Point& point : series.points) {
      if (!first_point) out += ",";
      first_point = false;
      out += util::format("[%lld,%lld]", static_cast<long long>(point.t_ms),
                          static_cast<long long>(point.value));
    }
    out += "]}";
  }
  out += "\n]\n}\n";
  return out;
}

}  // namespace vgrid::obs
