// Tests for vgrid::obs — the deterministic metrics layer — and for the
// metrics_diff snapshot parser/comparator: instrument semantics, label
// ordering, merge rules, snapshot round-trips, the TaskPool jobs-invariance
// contract, and the sim::Tracer record cap.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/task_pool.hpp"
#include "metrics_diff/metrics_diff.hpp"
#include "obs/registry.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"

namespace vgrid::obs {
namespace {

TEST(Counter, StartsAtZeroAndAdds) {
  Registry registry;
  Counter& counter = registry.counter("test.events");
  EXPECT_EQ(counter.value(), 0u);
  counter.add();
  counter.add(41);
  EXPECT_EQ(counter.value(), 42u);
}

TEST(Gauge, UpdateMaxKeepsHighWater) {
  Registry registry;
  Gauge& gauge = registry.gauge("test.depth");
  EXPECT_FALSE(gauge.ever_set());
  gauge.update_max(5);
  gauge.update_max(3);
  EXPECT_EQ(gauge.value(), 5);
  EXPECT_TRUE(gauge.ever_set());
  gauge.update_max(9);
  EXPECT_EQ(gauge.value(), 9);
}

TEST(Histogram, BucketBoundsAreInclusiveUpperBounds) {
  Registry registry;
  Histogram& histogram = registry.histogram("test.lat", {10, 20});
  histogram.observe(10);  // == first bound -> bucket 0
  histogram.observe(11);  // just above -> bucket 1
  histogram.observe(20);  // == second bound -> bucket 1
  histogram.observe(21);  // above all bounds -> +Inf bucket
  EXPECT_EQ(histogram.bucket_count(0), 1u);
  EXPECT_EQ(histogram.bucket_count(1), 2u);
  EXPECT_EQ(histogram.bucket_count(2), 1u);
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_EQ(histogram.sum(), 62);
  EXPECT_EQ(histogram.min(), 10);
  EXPECT_EQ(histogram.max(), 21);
}

TEST(Histogram, RejectsNonAscendingBounds) {
  Registry registry;
  EXPECT_THROW(registry.histogram("bad.desc", {20, 10}), util::ConfigError);
  EXPECT_THROW(registry.histogram("bad.dup", {10, 10}), util::ConfigError);
}

TEST(Registry, TypeAndShapeMismatchesThrow) {
  Registry registry;
  registry.counter("test.a");
  EXPECT_THROW(registry.gauge("test.a"), util::ConfigError);
  EXPECT_THROW(registry.histogram("test.a", {1}), util::ConfigError);
  registry.gauge("test.g", {}, Gauge::Agg::kMax);
  EXPECT_THROW(registry.gauge("test.g", {}, Gauge::Agg::kSum),
               util::ConfigError);
  registry.histogram("test.h", {1, 2});
  EXPECT_THROW(registry.histogram("test.h", {1, 3}), util::ConfigError);
  // Same name with different labels is a distinct instrument: no throw.
  registry.gauge("test.a", {{"shard", "0"}});
}

TEST(Registry, SnapshotIsSortedAndInsertionOrderFree) {
  Registry forward;
  forward.counter("alpha.z");
  forward.counter("alpha.a", {{"op", "write"}});
  forward.counter("alpha.a", {{"op", "read"}});
  Registry backward;
  backward.counter("alpha.a", {{"op", "read"}});
  backward.counter("alpha.a", {{"op", "write"}});
  backward.counter("alpha.z");
  EXPECT_EQ(forward.snapshot_json(), backward.snapshot_json());
  const std::string snapshot = forward.snapshot_json();
  EXPECT_LT(snapshot.find("\"op\":\"read\""),
            snapshot.find("\"op\":\"write\""));
  EXPECT_LT(snapshot.find("alpha.a"), snapshot.find("alpha.z"));
}

TEST(Registry, MergeAppliesGaugeAggregationPolicies) {
  Registry target;
  target.gauge("g.max", {}, Gauge::Agg::kMax).set(5);
  target.gauge("g.min", {}, Gauge::Agg::kMin).set(5);
  target.gauge("g.last", {}, Gauge::Agg::kLast).set(5);
  target.gauge("g.sum", {}, Gauge::Agg::kSum).set(5);
  target.gauge("g.keep", {}, Gauge::Agg::kLast).set(7);

  Registry source;
  source.gauge("g.max", {}, Gauge::Agg::kMax).set(3);
  source.gauge("g.min", {}, Gauge::Agg::kMin).set(3);
  source.gauge("g.last", {}, Gauge::Agg::kLast).set(3);
  source.gauge("g.sum", {}, Gauge::Agg::kSum).set(3);
  source.gauge("g.keep", {}, Gauge::Agg::kLast);  // never set

  target.merge_from(source);
  EXPECT_EQ(target.gauge("g.max", {}, Gauge::Agg::kMax).value(), 5);
  EXPECT_EQ(target.gauge("g.min", {}, Gauge::Agg::kMin).value(), 3);
  EXPECT_EQ(target.gauge("g.last", {}, Gauge::Agg::kLast).value(), 3);
  EXPECT_EQ(target.gauge("g.sum", {}, Gauge::Agg::kSum).value(), 8);
  // A never-set source gauge must not clobber the destination value.
  EXPECT_EQ(target.gauge("g.keep", {}, Gauge::Agg::kLast).value(), 7);
}

TEST(Registry, MergeCombinesHistogramsAndCounters) {
  Registry target;
  target.counter("c").add(10);
  target.histogram("h", {100}).observe(50);

  Registry source;
  source.counter("c").add(32);
  Histogram& histogram = source.histogram("h", {100});
  histogram.observe(7);
  histogram.observe(500);

  target.merge_from(source);
  EXPECT_EQ(target.counter("c").value(), 42u);
  Histogram& merged = target.histogram("h", {100});
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_EQ(merged.sum(), 557);
  EXPECT_EQ(merged.min(), 7);
  EXPECT_EQ(merged.max(), 500);
  EXPECT_EQ(merged.bucket_count(0), 2u);
  EXPECT_EQ(merged.bucket_count(1), 1u);
}

TEST(Histogram, PercentilesInterpolateInsideBuckets) {
  Registry registry;
  Histogram& histogram = registry.histogram("pct.lat", {100, 200, 400});
  // 100 observations spread 0..99: all land in the first bucket, which
  // spans [min=0, bound=100] for interpolation.
  for (std::int64_t v = 0; v < 100; ++v) histogram.observe(v);
  EXPECT_EQ(histogram.percentile(0.50), 50);
  EXPECT_EQ(histogram.percentile(0.90), 90);
  // Extremes clamp to the tracked min/max.
  EXPECT_EQ(histogram.percentile(0.0), 0);
  EXPECT_EQ(histogram.percentile(1.0), 99);
}

TEST(Histogram, PercentileTailUsesTrackedMaxInInfBucket) {
  Registry registry;
  Histogram& histogram = registry.histogram("pct.tail", {10});
  for (int i = 0; i < 99; ++i) histogram.observe(5);
  histogram.observe(5000);  // lone outlier in the +Inf bucket
  // p99 rank (99) still lands in the first bucket; p100 reaches the
  // outlier but can never exceed the tracked max.
  EXPECT_LE(histogram.percentile(0.99), 10);
  EXPECT_EQ(histogram.percentile(1.0), 5000);
}

TEST(Histogram, PercentileOfEmptyHistogramIsZero) {
  Registry registry;
  Histogram& histogram = registry.histogram("pct.empty", {10});
  EXPECT_EQ(histogram.percentile(0.5), 0);
}

TEST(Registry, SnapshotCarriesPercentilesThroughDiffParser) {
  Registry registry;
  Histogram& histogram = registry.histogram("pct.snap", {100});
  for (std::int64_t v = 1; v <= 10; ++v) histogram.observe(v * 10);
  const auto snapshot = tools::parse_snapshot(registry.snapshot_json());
  ASSERT_EQ(snapshot.instruments.size(), 1u);
  EXPECT_EQ(snapshot.instruments[0].p50, histogram.percentile(0.50));
  EXPECT_EQ(snapshot.instruments[0].p90, histogram.percentile(0.90));
  EXPECT_EQ(snapshot.instruments[0].p99, histogram.percentile(0.99));

  // A tail shift beyond the band is called out as a p-line difference.
  Registry other;
  Histogram& shifted = other.histogram("pct.snap", {100});
  for (std::int64_t v = 1; v <= 10; ++v) shifted.observe(v * 10 + 40);
  const auto moved = tools::parse_snapshot(other.snapshot_json());
  const auto differences =
      tools::diff_snapshots(snapshot, moved, {/*abs_tol=*/0.0,
                                              /*rel_tol=*/0.0});
  bool p90_flagged = false;
  for (const auto& difference : differences) {
    if (difference.detail.rfind("p90", 0) == 0) p90_flagged = true;
  }
  EXPECT_TRUE(p90_flagged);
}

TEST(Registry, PrometheusExportsQuantileSeries) {
  Registry registry;
  Histogram& histogram = registry.histogram("quant.lat", {100});
  for (std::int64_t v = 0; v < 100; ++v) histogram.observe(v);
  const std::string text = registry.snapshot_prometheus();
  EXPECT_NE(text.find("vgrid_quant_lat{quantile=\"0.5\"} 50"),
            std::string::npos);
  EXPECT_NE(text.find("vgrid_quant_lat{quantile=\"0.9\"} 90"),
            std::string::npos);
  EXPECT_NE(text.find("vgrid_quant_lat{quantile=\"0.99\"} 99"),
            std::string::npos);
}

TEST(Registry, SnapshotRoundTripsThroughMetricsDiffParser) {
  Registry registry;
  registry.counter("round.trip", {{"path", "say \"hi\"\\n"}}).add(17);
  registry.gauge("round.gauge", {}, Gauge::Agg::kSum).set(-4);
  registry.histogram("round.hist", {10, 100}).observe(42);

  const auto snapshot = tools::parse_snapshot(registry.snapshot_json());
  EXPECT_EQ(snapshot.version, 1);
  ASSERT_EQ(snapshot.instruments.size(), 3u);
  // Sorted order: round.gauge, round.hist, round.trip.
  EXPECT_EQ(snapshot.instruments[0].name, "round.gauge");
  EXPECT_EQ(snapshot.instruments[0].value, -4);
  EXPECT_EQ(snapshot.instruments[0].agg, "sum");
  EXPECT_TRUE(snapshot.instruments[0].set);
  EXPECT_EQ(snapshot.instruments[1].name, "round.hist");
  EXPECT_EQ(snapshot.instruments[1].bounds,
            (std::vector<std::int64_t>{10, 100}));
  EXPECT_EQ(snapshot.instruments[1].counts,
            (std::vector<std::uint64_t>{0, 1, 0}));
  EXPECT_EQ(snapshot.instruments[2].name, "round.trip");
  // The escaped label survived the JSON round-trip intact.
  EXPECT_EQ(snapshot.instruments[2].labels.at("path"), "say \"hi\"\\n");
  EXPECT_EQ(snapshot.instruments[2].value, 17);

  const auto differences = tools::diff_snapshots(snapshot, snapshot, {});
  EXPECT_TRUE(differences.empty());
}

TEST(Registry, DefaultsCoverAllSixSubsystems) {
  Registry registry;
  register_defaults(registry);
  const auto snapshot = tools::parse_snapshot(registry.snapshot_json());
  const char* subsystems[] = {"sim.", "os.", "hw.", "vmm.", "guest.",
                              "grid."};
  for (const char* prefix : subsystems) {
    int count = 0;
    for (const auto& instrument : snapshot.instruments) {
      if (instrument.name.rfind(prefix, 0) == 0) ++count;
    }
    EXPECT_GE(count, 2) << "subsystem " << prefix
                        << " must pre-register at least two instruments";
  }
}

TEST(Registry, PrometheusExportsTypedSeries) {
  Registry registry;
  registry.counter("prom.events", {{"kind", "a"}}).add(3);
  registry.histogram("prom.lat", {10}).observe(4);
  const std::string text = registry.snapshot_prometheus();
  EXPECT_NE(text.find("# TYPE vgrid_prom_events counter"),
            std::string::npos);
  EXPECT_NE(text.find("vgrid_prom_events{kind=\"a\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("vgrid_prom_lat_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("vgrid_prom_lat_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("vgrid_prom_lat_count 1"), std::string::npos);
}

TEST(ScopedSpan, RecordsWallAndSimTimeIntoCurrentRegistry) {
  Registry registry;
  {
    ScopedRegistry scope(&registry);
    ScopedSpan span("unit.work", [] { return std::int64_t{42}; });
  }
  const auto spans = registry.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "unit.work");
  EXPECT_TRUE(spans[0].has_sim_time);
  EXPECT_EQ(spans[0].sim_start_ns, 42);
  EXPECT_EQ(spans[0].sim_end_ns, 42);
  EXPECT_GE(spans[0].wall_end_ns, spans[0].wall_start_ns);
  // Spans are wall-clock observability and stay out of the deterministic
  // snapshot.
  EXPECT_EQ(registry.snapshot_json().find("unit.work"), std::string::npos);
}

TEST(AmbientRegistry, MaybeHelpersAreNullWithoutRegistry) {
  ASSERT_EQ(current(), nullptr);
  EXPECT_EQ(maybe_counter("off.counter"), nullptr);
  EXPECT_EQ(maybe_gauge("off.gauge"), nullptr);
  EXPECT_EQ(maybe_histogram("off.hist", {1}), nullptr);
  Registry registry;
  {
    ScopedRegistry scope(&registry);
    EXPECT_NE(maybe_counter("on.counter"), nullptr);
  }
  EXPECT_EQ(current(), nullptr);
}

/// The tentpole contract: metrics recorded inside TaskPool tasks merge in
/// task order, so the snapshot is byte-identical for any --jobs value.
std::string pooled_snapshot(int jobs) {
  Registry registry;
  ScopedRegistry scope(&registry);
  core::TaskPool pool(jobs);
  pool.run(32, [](std::size_t i) {
    maybe_counter("pool.work")->add(i + 1);
    maybe_gauge("pool.high_water")->update_max(static_cast<std::int64_t>(i));
    maybe_gauge("pool.total", {}, Gauge::Agg::kSum)
        ->set(static_cast<std::int64_t>(i));
    maybe_histogram("pool.lat", {8, 16})
        ->observe(static_cast<std::int64_t>(i));
  });
  return registry.snapshot_json();
}

TEST(TaskPool, SnapshotIsByteIdenticalAcrossJobCounts) {
  const std::string serial = pooled_snapshot(1);
  const std::string parallel = pooled_snapshot(8);
  EXPECT_EQ(serial, parallel);
  const auto snapshot = tools::parse_snapshot(serial);
  ASSERT_EQ(snapshot.instruments.size(), 4u);
  EXPECT_EQ(snapshot.instruments[1].name, "pool.lat");
  EXPECT_EQ(snapshot.instruments[1].count, 32u);
  EXPECT_EQ(snapshot.instruments[3].name, "pool.work");
  EXPECT_EQ(snapshot.instruments[3].value, 32 * 33 / 2);
}

TEST(Tracer, RecordCapBoundsRetentionAndCountsDrops) {
  Registry registry;
  ScopedRegistry scope(&registry);
  sim::Tracer tracer;  // resolves its obs counters from `registry`
  tracer.enable(true);
  tracer.set_record_cap(3);
  for (int i = 0; i < 5; ++i) {
    tracer.record(sim::SimTime{i}, sim::TraceKind::kCustom, "t");
  }
  EXPECT_EQ(tracer.records().size(), 3u);
  EXPECT_EQ(tracer.dropped(), 2u);
  EXPECT_EQ(registry.counter("sim.trace.records").value(), 5u);
  EXPECT_EQ(registry.counter("sim.trace.records_dropped").value(), 2u);
  tracer.clear();
  EXPECT_EQ(tracer.dropped(), 0u);
  tracer.record(sim::SimTime{9}, sim::TraceKind::kCustom, "t");
  EXPECT_EQ(tracer.records().size(), 1u);
}

TEST(MetricsDiff, ToleranceBandFormula) {
  tools::Tolerance exact;
  EXPECT_TRUE(exact.within(10, 10));
  EXPECT_FALSE(exact.within(10, 11));
  tools::Tolerance abs;
  abs.abs_tol = 1.0;
  EXPECT_TRUE(abs.within(10, 11));
  EXPECT_FALSE(abs.within(10, 12));
  tools::Tolerance rel;
  rel.rel_tol = 0.1;
  EXPECT_TRUE(rel.within(100, 109));
  EXPECT_FALSE(rel.within(100, 120));
}

TEST(MetricsDiff, ZeroToleranceIsExactAbove2To53) {
  // 2^53 + 1 and 2^53 are the same double; the determinism gate must
  // still tell the two counters apart.
  Registry a;
  a.counter("big").add(9'007'199'254'740'993ULL);
  Registry b;
  b.counter("big").add(9'007'199'254'740'992ULL);
  const auto differences =
      tools::diff_snapshots(tools::parse_snapshot(a.snapshot_json()),
                            tools::parse_snapshot(b.snapshot_json()), {});
  ASSERT_EQ(differences.size(), 1u);
  EXPECT_EQ(differences[0].detail,
            "value 9007199254740993 vs 9007199254740992");
}

TEST(DiffCommon, ReaderKeepsIntegersExactAndErrorsPositioned) {
  const tools::JsonValue doc =
      tools::parse_json("{\"n\":9007199254740993,\n \"x\":2e+06}");
  EXPECT_EQ(tools::field(doc, "n").as_int(), 9'007'199'254'740'993LL);
  EXPECT_DOUBLE_EQ(tools::field(doc, "x").as_double(), 2e6);
  // A %g number where an integer belongs is an error, not a truncation.
  try {
    (void)tools::field(doc, "x").as_int();
    ADD_FAILURE() << "a double read as an integer";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(),
                 "line 2, column 6: expected an integer, got a "
                 "non-integral number");
  }
  try {
    (void)tools::parse_json("{\"a\":1,\n\"b\":[1 2]}");
    ADD_FAILURE() << "malformed array accepted";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "line 2, column 8: expected ',' or ']'");
  }
  EXPECT_THROW(tools::field(doc, "missing"), std::runtime_error);
  EXPECT_THROW(tools::parse_json("{\"a\":1,\"a\":2}"), std::runtime_error);
  EXPECT_THROW(tools::parse_json("[1] x"), std::runtime_error);
}

TEST(DiffCommon, ToleranceFlagsParseStrictly) {
  EXPECT_EQ(tools::parse_tolerance("0.25"), 0.25);
  EXPECT_EQ(tools::parse_tolerance("0"), 0.0);
  for (const char* bad : {"25%", "0.25x", "-1", "nan", "inf", "", " 1"}) {
    EXPECT_FALSE(tools::parse_tolerance(bad).has_value()) << bad;
  }
}

TEST(MetricsDiff, FlagsValueAndPresenceDifferences) {
  Registry a;
  a.counter("diff.c").add(100);
  a.counter("diff.only_a").add(1);
  Registry b;
  b.counter("diff.c").add(103);

  const auto left = tools::parse_snapshot(a.snapshot_json());
  const auto right = tools::parse_snapshot(b.snapshot_json());
  const auto exact = tools::diff_snapshots(left, right, {});
  ASSERT_EQ(exact.size(), 2u);
  EXPECT_EQ(exact[0].instrument, "diff.c");
  EXPECT_EQ(exact[1].instrument, "diff.only_a");
  EXPECT_EQ(exact[1].detail, "only in first snapshot");

  tools::Tolerance band;
  band.rel_tol = 0.05;
  const auto tolerant = tools::diff_snapshots(left, right, band);
  ASSERT_EQ(tolerant.size(), 1u);  // the value now fits the band
  EXPECT_EQ(tolerant[0].instrument, "diff.only_a");
}

TEST(MetricsDiff, ParserRejectsUnknownVersion) {
  EXPECT_THROW(
      tools::parse_snapshot("{\n\"vgrid_metrics_version\":2,\n"
                            "\"instruments\":[\n]\n}\n"),
      std::runtime_error);
  EXPECT_THROW(tools::parse_snapshot(""), std::runtime_error);
}

}  // namespace
}  // namespace vgrid::obs
