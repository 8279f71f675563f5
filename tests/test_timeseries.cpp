// Tests for obs::Timeseries — the time-resolved leg of the observability
// quartet — and for the timeseries_diff export parser/comparator: track
// semantics (counter deltas, gauge levels, histogram percentile tracks),
// ring retention with eviction-proof aggregates, the TaskPool
// jobs-invariance contract, the seeded dropped-merge mutation, and the
// tolerance-band diff.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/task_pool.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "timeseries_diff/timeseries_diff.hpp"

namespace vgrid::obs {
namespace {

// --- track semantics ---------------------------------------------------------

TEST(TimeseriesTracks, CountersRecordPerIntervalDeltas) {
  Registry registry;
  Counter& counter = registry.counter("test.events");
  Timeseries series;

  series.sample(registry, 0);  // baseline: raw 0, delta 0
  counter.add(5);
  series.sample(registry, 100);
  counter.add(2);
  series.sample(registry, 200);
  series.sample(registry, 300);  // no traffic: delta 0

  const Timeseries::Series* track =
      series.find_series("test.events", {}, TrackKind::kCounterDelta);
  ASSERT_NE(track, nullptr);
  ASSERT_EQ(track->points.size(), 4u);
  EXPECT_EQ(track->points[0].value, 0);
  EXPECT_EQ(track->points[1].value, 5);
  EXPECT_EQ(track->points[2].value, 2);
  EXPECT_EQ(track->points[3].value, 0);
  EXPECT_EQ(track->points[1].t_ms, 100);
  EXPECT_EQ(track->max_value, 5);
}

TEST(TimeseriesTracks, GaugesRecordLevels) {
  Registry registry;
  Gauge& gauge = registry.gauge("test.depth", {}, Gauge::Agg::kLast);
  Timeseries series;

  gauge.set(7);
  series.sample(registry, 0);
  gauge.set(3);
  series.sample(registry, 100);

  const Timeseries::Series* track =
      series.find_series("test.depth", {}, TrackKind::kGaugeLevel);
  ASSERT_NE(track, nullptr);
  ASSERT_EQ(track->points.size(), 2u);
  EXPECT_EQ(track->points[0].value, 7);
  EXPECT_EQ(track->points[1].value, 3);  // a level, not a running max
  EXPECT_EQ(track->last_value, 3);
}

TEST(TimeseriesTracks, HistogramsRecordPercentileTracks) {
  Registry registry;
  Histogram& histogram =
      registry.histogram("test.latency", {10, 100, 1000});
  Timeseries series;

  for (int i = 0; i < 99; ++i) histogram.observe(5);
  histogram.observe(500);
  series.sample(registry, 100);

  const Timeseries::Series* p50 =
      series.find_series("test.latency", {}, TrackKind::kHistogramP50);
  const Timeseries::Series* p99 =
      series.find_series("test.latency", {}, TrackKind::kHistogramP99);
  ASSERT_NE(p50, nullptr);
  ASSERT_NE(p99, nullptr);
  ASSERT_EQ(p50->points.size(), 1u);
  // The p50 lives in the first bucket (<= 10); the tail observation pulls
  // the p99 track above it.
  EXPECT_LE(p50->points[0].value, 10);
  EXPECT_GT(p99->points[0].value, p50->points[0].value);
}

TEST(TimeseriesTracks, EmptyRegistryScrapeCountsButRecordsNothing) {
  Registry registry;
  Timeseries series;
  series.sample(registry, 0);
  series.sample(registry, 100);
  EXPECT_EQ(series.samples_taken(), 2u);
  EXPECT_EQ(series.series_count(), 0u);
  EXPECT_EQ(series.points_recorded(), 0u);
  // The export still parses: header only, no series lines.
  const auto parsed = tools::parse_timeseries(series.render_json());
  EXPECT_EQ(parsed.samples, 2u);
  EXPECT_TRUE(parsed.series.empty());
}

// --- ring retention ----------------------------------------------------------

TEST(TimeseriesRing, KeepsNewestPointsAggregatesSurviveEviction) {
  Registry registry;
  Gauge& gauge = registry.gauge("test.level", {}, Gauge::Agg::kLast);
  Timeseries series(Timeseries::Config{.interval_ms = 100,
                                       .ring_capacity = 4});
  for (int i = 1; i <= 10; ++i) {
    gauge.set(i);
    series.sample(registry, i * 100);
  }

  const Timeseries::Series* track =
      series.find_series("test.level", {}, TrackKind::kGaugeLevel);
  ASSERT_NE(track, nullptr);
  // The ring holds only the newest 4 points...
  ASSERT_EQ(track->points.size(), 4u);
  EXPECT_EQ(track->points.front().value, 7);
  EXPECT_EQ(track->points.back().value, 10);
  EXPECT_EQ(track->evicted, 6u);
  EXPECT_EQ(series.ring_churn(), 6u);
  // ...but the aggregates cover every point ever appended.
  EXPECT_EQ(track->total_points, 10u);
  EXPECT_EQ(track->min_value, 1);
  EXPECT_EQ(track->max_value, 10);
  EXPECT_EQ(track->last_value, 10);
}

// --- merge / jobs invariance -------------------------------------------------

/// Renders the export of `tasks` per-task samplers routed through a
/// TaskPool with the given fan-out. Each task scrapes its own private
/// registry into the ambient (per-task) sub-sampler, so the merged result
/// must be byte-identical for any jobs value.
std::string pooled_export(int jobs, std::size_t tasks) {
  Timeseries parent;
  ScopedTimeseries scope(&parent);
  core::TaskPool pool(jobs);
  pool.run(tasks, [](std::size_t index) {
    Registry registry;
    Counter& counter = registry.counter(
        "task.events", {{"task", std::to_string(index)}});
    Timeseries* sink = current_timeseries();
    ASSERT_NE(sink, nullptr);
    sink->sample(registry, 0);
    counter.add(index + 1);
    sink->sample(registry, 100);
  });
  return parent.render_json();
}

TEST(TimeseriesMerge, TaskPoolExportIsJobsInvariant) {
  const std::string serial = pooled_export(1, 8);
  const std::string parallel = pooled_export(8, 8);
  EXPECT_EQ(serial, parallel);
  // And the merged document accounts for every sub-sampler's activity.
  const auto parsed = tools::parse_timeseries(serial);
  EXPECT_EQ(parsed.samples, 16u);          // 8 tasks x 2 scrapes
  EXPECT_EQ(parsed.series.size(), 8u);     // one labelled track per task
}

TEST(TimeseriesMerge, MergeReplaysRingRetention) {
  Registry registry;
  Gauge& gauge = registry.gauge("test.level", {}, Gauge::Agg::kLast);
  Timeseries sub(Timeseries::Config{.interval_ms = 100, .ring_capacity = 0});
  for (int i = 1; i <= 6; ++i) {
    gauge.set(i);
    sub.sample(registry, i * 100);
  }
  Timeseries parent(Timeseries::Config{.interval_ms = 100,
                                       .ring_capacity = 4});
  parent.merge_from(sub);
  const Timeseries::Series* track =
      parent.find_series("test.level", {}, TrackKind::kGaugeLevel);
  ASSERT_NE(track, nullptr);
  // The parent's tighter ring applies during the replayed appends.
  ASSERT_EQ(track->points.size(), 4u);
  EXPECT_EQ(track->points.front().value, 3);
  EXPECT_EQ(track->total_points, 6u);
  EXPECT_EQ(track->min_value, 1);
}

TEST(TimeseriesMerge, InjectedDropSkipsExactlyOneMerge) {
  Registry registry;
  registry.counter("test.events").add(3);
  Timeseries sub;
  sub.sample(registry, 100);

  Timeseries parent;
  parent.inject_dropped_merge_for_test();
  parent.merge_from(sub);  // silently dropped
  EXPECT_EQ(parent.samples_taken(), 0u);
  EXPECT_EQ(parent.series_count(), 0u);
  parent.merge_from(sub);  // the mutation is one-shot
  EXPECT_EQ(parent.samples_taken(), 1u);
  EXPECT_EQ(parent.series_count(), 1u);
}

// --- timeseries_diff ---------------------------------------------------------

/// A two-sample export with one counter track, value `delta` at t=100.
std::string small_export(std::uint64_t delta) {
  Registry registry;
  Counter& counter = registry.counter("test.events");
  Timeseries series;
  series.sample(registry, 0);
  counter.add(delta);
  series.sample(registry, 100);
  return series.render_json();
}

TEST(TimeseriesDiff, RoundTripsTheCanonicalExport) {
  const auto parsed = tools::parse_timeseries(small_export(5));
  EXPECT_EQ(parsed.version, 1);
  EXPECT_EQ(parsed.interval_ms, 100);
  EXPECT_EQ(parsed.samples, 2u);
  ASSERT_EQ(parsed.series.size(), 1u);
  EXPECT_EQ(parsed.series[0].name, "test.events");
  EXPECT_EQ(parsed.series[0].track, "delta");
  ASSERT_EQ(parsed.series[0].points.size(), 2u);
  EXPECT_EQ(parsed.series[0].points[1].first, 100);
  EXPECT_EQ(parsed.series[0].points[1].second, 5);
}

TEST(TimeseriesDiff, IdenticalExportsAgreeAtZeroTolerance) {
  const auto a = tools::parse_timeseries(small_export(5));
  const auto b = tools::parse_timeseries(small_export(5));
  EXPECT_TRUE(tools::diff_timeseries(a, b, {}).empty());
}

TEST(TimeseriesDiff, ValueDriftIsFlaggedThenAbsorbedByTheBand) {
  const auto a = tools::parse_timeseries(small_export(5));
  const auto b = tools::parse_timeseries(small_export(7));
  const auto exact = tools::diff_timeseries(a, b, {});
  ASSERT_FALSE(exact.empty());
  EXPECT_EQ(exact[0].series, "test.events/delta");

  tools::Tolerance band;
  band.abs_tol = 2.0;
  EXPECT_TRUE(tools::diff_timeseries(a, b, band).empty());
}

TEST(TimeseriesDiff, ZeroToleranceIsExactAbove2To53) {
  // 2^53 + 1 and 2^53 are the same double; the determinism gate must
  // still tell the two points apart.
  const auto a =
      tools::parse_timeseries(small_export(9'007'199'254'740'993ULL));
  const auto b =
      tools::parse_timeseries(small_export(9'007'199'254'740'992ULL));
  const auto differences = tools::diff_timeseries(a, b, {});
  ASSERT_FALSE(differences.empty());
  EXPECT_EQ(differences[0].series, "test.events/delta");
  EXPECT_EQ(differences[0].detail,
            "point[1] (t_ms 100) value 9007199254740993 vs "
            "9007199254740992");
}

TEST(TimeseriesDiff, CadenceMismatchIsSchemaNotNoise) {
  Registry registry;
  Timeseries fast(Timeseries::Config{.interval_ms = 100,
                                     .ring_capacity = 512});
  Timeseries slow(Timeseries::Config{.interval_ms = 250,
                                     .ring_capacity = 512});
  fast.sample(registry, 0);
  slow.sample(registry, 0);
  const auto a = tools::parse_timeseries(fast.render_json());
  const auto b = tools::parse_timeseries(slow.render_json());
  tools::Tolerance generous;
  generous.abs_tol = 1e9;  // no band forgives a schema change
  const auto differences = tools::diff_timeseries(a, b, generous);
  ASSERT_FALSE(differences.empty());
  EXPECT_EQ(differences[0].series, "(document)");
}

TEST(TimeseriesDiff, MalformedExportIsALoudParseError) {
  EXPECT_THROW(tools::parse_timeseries("{\n\"series\":[\n]\n}\n"),
               std::runtime_error);
}

}  // namespace
}  // namespace vgrid::obs
