#pragma once
// vgrid::obs — the time-resolved leg of the observability quartet
// (Registry, Profiler, EventLog, **Timeseries**).
//
// A Timeseries turns the Registry's end-state aggregates into curves: a
// deterministic sampler scrapes every instrument of a Registry at fixed
// SIM-time intervals into ring-buffered, fixed-capacity series of
// (t_ms, value) points. Counters record as per-interval DELTAS, gauges as
// LEVELS, histograms as p50/p99 tracks — so `vgrid timeseries fig5` can
// show a scheduler saturate mid-run and `vgrid watch fleet` can show a
// 100k-host fleet converge, instead of only the end-state snapshot.
//
// Who samples when (the quartet contract, see ARCHITECTURE.md):
//  - testbed runs: core::Testbed arms a repeating sim::EventQueue timer
//    that scrapes the ambient Registry into the ambient Timeseries every
//    `interval_ms` of SIMULATED time. The timer re-arms only while the
//    simulation is making progress, so it can never mask deadlock
//    detection or keep the event queue alive after the workload is done;
//  - fleet runs: fleet::run_fleet samples at logical shard checkpoints
//    (one scrape per completed shard, t = shard index × interval);
//  - core::TaskPool forks the ambient obs::Context through obs::FanOut: a
//    fresh sub-Timeseries per task, merged in task order, so the rendered
//    series is byte-identical for any --jobs value (enforced by
//    `vgrid determinism-audit --timeseries`);
//  - all timestamps are logical (sim ms / checkpoint index) — never wall
//    clock — which is what makes the byte-identity contract possible.
//
// Ring retention: each series keeps the newest `ring_capacity` points;
// the per-series aggregates (total_points, min/max/last) are fed on every
// append and therefore survive eviction, exactly like the EventLog's
// flight-recorder histograms.
//
// This class is also the sanctioned scrape gateway: lint rule
// `obs-timeseries-gateway` keeps raw Registry::snapshot_* calls out of
// src/ outside this layer, so every periodic scrape goes through the
// deterministic sampler (or the one-shot obs::write_snapshot exporter).

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace vgrid::obs {

/// What a series' points mean: counter deltas, gauge levels, or a
/// histogram percentile track.
enum class TrackKind : std::uint8_t {
  kCounterDelta = 0,
  kGaugeLevel,
  kHistogramP50,
  kHistogramP99,
};

/// Stable lower-case name ("delta", "level", "p50", "p99").
const char* track_kind_name(TrackKind kind) noexcept;

class Timeseries {
 public:
  struct Config {
    /// Nominal sampling cadence in simulated milliseconds; the testbed
    /// timer period, and the logical checkpoint spacing for fleet runs.
    std::int64_t interval_ms = 100;
    /// Newest points retained per series (0 = unbounded). Aggregates are
    /// unaffected by eviction.
    std::size_t ring_capacity = 512;
  };

  struct Point {
    std::int64_t t_ms = 0;
    std::int64_t value = 0;
  };

  /// One per-instrument track. Aggregates cover every point ever
  /// appended; `points` holds only the newest ring_capacity of them.
  struct Series {
    std::string name;
    Labels labels;
    TrackKind kind = TrackKind::kCounterDelta;
    std::deque<Point> points;
    std::uint64_t total_points = 0;
    std::uint64_t evicted = 0;
    std::int64_t last_value = 0;
    std::int64_t min_value = 0;
    std::int64_t max_value = 0;

   private:
    friend class Timeseries;
    /// Raw counter value at the previous scrape (delta baseline).
    std::uint64_t prev_raw_ = 0;
  };

  Timeseries();
  explicit Timeseries(Config config);
  Timeseries(const Timeseries&) = delete;
  Timeseries& operator=(const Timeseries&) = delete;

  const Config& config() const noexcept { return config_; }

  /// Scrape every instrument of `registry` once, stamping the points with
  /// logical time `t_ms`. Instruments enumerate in the registry's sorted
  /// (name, labels) order, so a scrape is deterministic for a
  /// deterministic workload. The ONE sanctioned periodic-scrape entry
  /// point (lint rule obs-timeseries-gateway).
  void sample(const Registry& registry, std::int64_t t_ms);

  /// Fold `other` into this sampler in task order: per-series points
  /// append in their original order (replaying ring retention), and the
  /// eviction-proof aggregates combine exactly.
  void merge_from(const Timeseries& other);

  /// Arm the seeded dropped-merge mutation: the next merge_from() call is
  /// silently skipped. Only the timeseries.finds.dropped_merge audit
  /// fixture uses this — it proves a lost worker sub-series is caught.
  void inject_dropped_merge_for_test() noexcept;

  // -- queries ----------------------------------------------------------------

  std::uint64_t samples_taken() const;
  std::size_t series_count() const;
  /// Points appended across all series (including evicted ones).
  std::uint64_t points_recorded() const;
  /// Points evicted by ring retention across all series.
  std::uint64_t ring_churn() const;

  /// Stable-ordered views of every series, sorted by (name, labels,
  /// track). Pointers are valid until the next write.
  std::vector<const Series*> series() const;
  /// A single series (nullptr when absent).
  const Series* find_series(const std::string& name, const Labels& labels,
                            TrackKind kind) const;

  /// Canonical byte-stable export: versioned JSON, one series per line,
  /// sorted by (name, labels, track); points in append (task) order. The
  /// determinism audit byte-compares this across --jobs values, and
  /// tools/timeseries_diff parses it as one JSON document.
  std::string render_json() const;

 private:
  struct SeriesKey {
    std::string name;
    Labels labels;
    TrackKind kind;
    bool operator<(const SeriesKey& other) const noexcept {
      if (name != other.name) return name < other.name;
      if (labels != other.labels) return labels < other.labels;
      return kind < other.kind;
    }
  };

  Series& series_locked(const std::string& name, const Labels& labels,
                        TrackKind kind);
  void push_point_locked(Series& series, Point point);
  void append_locked(Series& series, std::int64_t t_ms, std::int64_t value);

  Config config_;
  mutable std::mutex mutex_;
  std::map<SeriesKey, Series> series_;
  std::uint64_t samples_ = 0;
  std::uint64_t points_ = 0;
  std::uint64_t evicted_ = 0;
  bool drop_next_merge_ = false;
};

// The calling thread's sampler, current_timeseries(), is one field of the
// ambient obs::Context (obs/context.hpp): nullptr by default; only
// `vgrid timeseries`, `vgrid watch` and `determinism-audit --timeseries`
// install one (ScopedTimeseries).

}  // namespace vgrid::obs
