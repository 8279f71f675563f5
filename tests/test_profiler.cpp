// Tests for the self-profiling layer: obs::Profiler tree accounting,
// deterministic cross-thread merge via core::TaskPool, the configure-time
// off switch, the report/profile_export renderers, and the bench_diff
// perf-gate semantics on in-memory BENCH documents.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bench_diff/bench_diff.hpp"
#include "core/task_pool.hpp"
#include "obs/profiler.hpp"
#include "report/profile_export.hpp"
#include "util/clock.hpp"

// Defined in test_profiler_forceoff.cpp, which is compiled with
// VGRID_PROFILE_FORCE_OFF: its PROF_SCOPE must expand to nothing even
// while a profiler is installed.
namespace vgrid::obs::testing {
void run_force_off_scope();
}

namespace vgrid::obs {
namespace {

// ---- tree accounting ---------------------------------------------------------

TEST(Profiler, NestedScopesAccumulateInclusiveAndExclusiveTime) {
  Profiler profiler;
  const std::int32_t outer = profiler.enter("outer");
  const std::int32_t inner_a = profiler.enter("inner");
  profiler.leave(inner_a, 30);
  const std::int32_t inner_b = profiler.enter("inner");
  profiler.leave(inner_b, 20);
  profiler.leave(outer, 100);

  // The two "inner" scopes under the same parent share one node.
  EXPECT_EQ(inner_a, inner_b);
  ASSERT_EQ(profiler.nodes().size(), 3u);  // root + outer + inner
  const Profiler::Node& outer_node = profiler.nodes()[outer];
  const Profiler::Node& inner_node = profiler.nodes()[inner_a];
  EXPECT_EQ(outer_node.count, 1u);
  EXPECT_EQ(outer_node.inclusive_ns, 100);
  EXPECT_EQ(inner_node.count, 2u);
  EXPECT_EQ(inner_node.inclusive_ns, 50);
  // Exclusive = inclusive minus the children's inclusive.
  EXPECT_EQ(profiler.exclusive_ns(outer), 50);
  EXPECT_EQ(profiler.exclusive_ns(inner_a), 50);
  EXPECT_EQ(profiler.total_ns(), 100);
  EXPECT_FALSE(profiler.empty());
}

TEST(Profiler, SameNameUnderDifferentParentsIsDistinctNodes) {
  Profiler profiler;
  const std::int32_t a = profiler.enter("a");
  const std::int32_t leaf_under_a = profiler.enter("leaf");
  profiler.leave(leaf_under_a, 1);
  profiler.leave(a, 2);
  const std::int32_t b = profiler.enter("b");
  const std::int32_t leaf_under_b = profiler.enter("leaf");
  profiler.leave(leaf_under_b, 3);
  profiler.leave(b, 4);
  EXPECT_NE(leaf_under_a, leaf_under_b);
  EXPECT_EQ(profiler.nodes()[leaf_under_a].parent, a);
  EXPECT_EQ(profiler.nodes()[leaf_under_b].parent, b);
}

TEST(Profiler, ProfScopeRecordsIntoAmbientProfiler) {
  Profiler profiler;
  {
    ScopedProfiler install(&profiler);
    PROF_SCOPE("ambient.outer");
    PROF_SCOPE("ambient.inner");
  }
  // Both scopes opened in the same block: inner nests under outer
  // (declaration order), both completed on block exit.
  ASSERT_EQ(profiler.nodes().size(), 3u);
  EXPECT_EQ(profiler.nodes()[1].name, "ambient.outer");
  EXPECT_EQ(profiler.nodes()[2].name, "ambient.inner");
  EXPECT_EQ(profiler.nodes()[2].parent, 1);
  EXPECT_EQ(profiler.nodes()[1].count, 1u);
  EXPECT_GE(profiler.nodes()[1].inclusive_ns,
            profiler.nodes()[2].inclusive_ns);
}

TEST(Profiler, ProfScopeWithoutProfilerIsInert) {
  ASSERT_EQ(current_profiler(), nullptr);
  PROF_SCOPE("nobody.listening");  // must not crash or allocate a tree
  EXPECT_EQ(current_profiler(), nullptr);
}

TEST(Profiler, ForceOffTranslationUnitRecordsNothing) {
  Profiler profiler;
  {
    ScopedProfiler install(&profiler);
    testing::run_force_off_scope();
  }
  EXPECT_TRUE(profiler.empty());
}

// ---- merge -------------------------------------------------------------------

TEST(Profiler, MergeMatchesByPathAndAddsCounts) {
  Profiler target;
  const std::int32_t a = target.enter("a");
  const std::int32_t b = target.enter("b");
  target.leave(b, 10);
  target.leave(a, 30);

  Profiler source;
  const std::int32_t a2 = source.enter("a");
  const std::int32_t b2 = source.enter("b");
  source.leave(b2, 5);
  source.leave(a2, 15);
  const std::int32_t c = source.enter("c");
  source.leave(c, 7);

  target.merge_from(source);
  ASSERT_EQ(target.nodes().size(), 4u);  // root, a, b, c
  EXPECT_EQ(target.nodes()[a].count, 2u);
  EXPECT_EQ(target.nodes()[a].inclusive_ns, 45);
  EXPECT_EQ(target.nodes()[b].count, 2u);
  EXPECT_EQ(target.nodes()[b].inclusive_ns, 15);
  EXPECT_EQ(target.nodes()[3].name, "c");
  EXPECT_EQ(target.nodes()[3].parent, 0);
  EXPECT_EQ(target.total_ns(), 45 + 7);
}

TEST(Profiler, MergedTreeOutlivesSourceProfiler) {
  // merge_from must not keep pointers into the (dying) source: the
  // fast-path name pointers have to be repointed at the target's own
  // strings.
  Profiler target;
  {
    Profiler source;
    const std::int32_t node = source.enter(std::string("heap.name").c_str());
    source.leave(node, 3);
    target.merge_from(source);
  }
  const std::int32_t again = target.enter("heap.name");
  target.leave(again, 4);
  ASSERT_EQ(target.nodes().size(), 2u);
  EXPECT_EQ(target.nodes()[1].count, 2u);
  EXPECT_EQ(target.nodes()[1].inclusive_ns, 7);
}

/// The tentpole contract: scopes recorded inside TaskPool tasks merge in
/// task order, so the profile STRUCTURE (paths, counts) is identical for
/// any --jobs value; only the wall-clock ns differ.
std::vector<std::pair<std::string, std::uint64_t>> pooled_structure(
    int jobs) {
  Profiler profiler;
  ScopedProfiler install(&profiler);
  core::TaskPool pool(jobs);
  pool.run(24, [](std::size_t i) {
    PROF_SCOPE("pool.task");
    if (i % 3 == 0) {
      PROF_SCOPE("pool.third");
    }
  });
  std::vector<std::pair<std::string, std::uint64_t>> structure;
  for (const Profiler::Node& node : profiler.nodes()) {
    structure.emplace_back(node.name, node.count);
  }
  return structure;
}

TEST(Profiler, TaskPoolMergeStructureIsIdenticalAcrossJobCounts) {
  const auto serial = pooled_structure(1);
  const auto parallel = pooled_structure(8);
  EXPECT_EQ(serial, parallel);
  ASSERT_EQ(serial.size(), 3u);  // root + pool.task + pool.third
  EXPECT_EQ(serial[1], (std::pair<std::string, std::uint64_t>(
                           "pool.task", 24u)));
  EXPECT_EQ(serial[2], (std::pair<std::string, std::uint64_t>(
                           "pool.third", 8u)));
}

/// The graft contract: a TaskPool run inside an open scope merges each
/// task's tree UNDER that scope, so nested time is counted once and the
/// profile sums to the wall time actually spent.
TEST(Profiler, TaskPoolTreesGraftUnderTheOpenScope) {
  Profiler profiler;
  {
    ScopedProfiler install(&profiler);
    PROF_SCOPE("outer");
    core::TaskPool pool(1);
    pool.run(4, [](std::size_t) {
      PROF_SCOPE("pool.task");
      const std::int64_t until = util::monotonic_time_ns() + 200'000;
      while (util::monotonic_time_ns() < until) {
      }
    });
  }
  const std::vector<Profiler::Node>& nodes = profiler.nodes();
  ASSERT_EQ(nodes[0].children.size(), 1u) << "task trees leaked to the root";
  const Profiler::Node& outer = nodes[nodes[0].children[0]];
  EXPECT_EQ(outer.name, "outer");
  ASSERT_EQ(outer.children.size(), 1u);
  const Profiler::Node& task = nodes[outer.children[0]];
  EXPECT_EQ(task.name, "pool.task");
  EXPECT_EQ(task.count, 4u);
  std::int64_t children_ns = 0;
  for (const std::int32_t child : outer.children) {
    children_ns += nodes[child].inclusive_ns;
  }
  EXPECT_GE(task.inclusive_ns, 4 * 200'000);
  EXPECT_GE(outer.inclusive_ns, children_ns);
  EXPECT_EQ(profiler.total_ns(), outer.inclusive_ns);
}

// ---- exporters ---------------------------------------------------------------

Profiler& sample_profile(Profiler& profiler) {
  const std::int32_t run = profiler.enter("run");
  const std::int32_t parse = profiler.enter("parse");
  profiler.leave(parse, 40);
  const std::int32_t exec = profiler.enter("exec");
  profiler.leave(exec, 50);
  profiler.leave(run, 100);
  return profiler;
}

TEST(ProfileExport, JsonIsVersionedAndSortsChildrenByName) {
  Profiler profiler;
  const std::string json = report::profile_json(sample_profile(profiler));
  EXPECT_NE(json.find("\"vgrid_profile_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"total_ns\":100"), std::string::npos);
  // Children of "run" sort by name: exec before parse despite creation
  // order.
  EXPECT_LT(json.find("\"name\":\"exec\""), json.find("\"name\":\"parse\""));
  EXPECT_NE(json.find("\"excl_ns\":10"), std::string::npos);
}

TEST(ProfileExport, FoldedStacksRoundTripPathsAndExclusiveTime) {
  Profiler profiler;
  const std::string folded =
      report::profile_folded(sample_profile(profiler));
  // Parse the folded lines back: "path ns" per line, nonzero-only.
  std::istringstream in(folded);
  std::string line;
  std::int64_t total = 0;
  std::vector<std::string> paths;
  while (std::getline(in, line)) {
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    paths.push_back(line.substr(0, space));
    total += std::stoll(line.substr(space + 1));
  }
  ASSERT_EQ(paths.size(), 3u);
  EXPECT_EQ(paths[0], "run");
  EXPECT_EQ(paths[1], "run;exec");
  EXPECT_EQ(paths[2], "run;parse");
  // Folded exclusive times partition the total inclusive time.
  EXPECT_EQ(total, 100);
}

TEST(ProfileExport, TopExclusiveAggregatesByScopeName) {
  Profiler profiler;
  const std::int32_t a = profiler.enter("a");
  const std::int32_t leaf1 = profiler.enter("leaf");
  profiler.leave(leaf1, 30);
  profiler.leave(a, 30);
  const std::int32_t b = profiler.enter("b");
  const std::int32_t leaf2 = profiler.enter("leaf");
  profiler.leave(leaf2, 25);
  profiler.leave(b, 40);

  const auto rows = report::top_exclusive(profiler, 2);
  ASSERT_EQ(rows.size(), 2u);
  // "leaf" appears under both parents but reports one aggregated row.
  EXPECT_EQ(rows[0].name, "leaf");
  EXPECT_EQ(rows[0].count, 2u);
  EXPECT_EQ(rows[0].exclusive_ns, 55);
  EXPECT_EQ(rows[1].name, "b");
  EXPECT_EQ(rows[1].exclusive_ns, 15);
}

// ---- bench_diff gate ---------------------------------------------------------

std::string bench_doc(std::int64_t round_trip_ns, bool with_extra) {
  std::ostringstream out;
  out << "{\"vgrid_bench_version\":1,\n\"benchmarks\":[\n"
      << "{\"median_ns\":" << round_trip_ns
      << ",\"min_ns\":" << round_trip_ns - 100
      << ",\"name\":\"grid.messages.round_trip\",\"ops\":1000,"
      << "\"ops_per_sec\":1e6,\"reps\":3}";
  if (with_extra) {
    out << ",\n{\"median_ns\":500000,\"min_ns\":400000,"
        << "\"name\":\"sim.event_queue.push_pop\",\"ops\":100,"
        << "\"ops_per_sec\":2e5,\"reps\":3}";
  }
  out << "\n],\n\"host\":{\"compiler\":\"gcc 12\",\"cores\":4},\n"
      << "\"quick\":true,\n"
      << "\"scenario\":{\"hash\":\"abc\",\"name\":\"paper\"}}\n";
  return out.str();
}

TEST(BenchDiff, HostQuickFlagParsesFromHostWithTopLevelFallback) {
  // Since the eventlog PR `quick` lives inside the host fingerprint
  // (written out explicitly even when false); older committed trajectory
  // entries still carry it at top level and must keep parsing.
  const std::string modern =
      "{\"vgrid_bench_version\":1,\"benchmarks\":["
      "{\"median_ns\":1000,\"min_ns\":900,\"name\":\"x\",\"ops\":1,"
      "\"ops_per_sec\":1,\"reps\":3}],"
      "\"host\":{\"compiler\":\"gcc 12\",\"cores\":4,\"quick\":false},"
      "\"scenario\":{\"hash\":\"abc\",\"name\":\"paper\"}}";
  EXPECT_FALSE(tools::parse_bench(modern).quick);
  EXPECT_TRUE(tools::parse_bench(bench_doc(1000, false)).quick)
      << "legacy top-level quick flag must keep parsing";
}

TEST(BenchDiff, QuickBaselineIsANoteEvenWhenModesMatch) {
  // A committed trajectory entry recorded in --quick mode is not a
  // trustworthy baseline even if the candidate is quick too: the report
  // must say so (as a note, not a failure) so the baseline gets
  // regenerated with a full run.
  const auto baseline = tools::parse_bench(bench_doc(1'000'000, true));
  const auto candidate = tools::parse_bench(bench_doc(1'000'000, true));
  const auto report = tools::diff_bench(baseline, candidate, {});
  EXPECT_FALSE(report.gate_failed);
  bool noted = false;
  for (const auto& finding : report.findings) {
    if (!finding.regression && finding.name == "(document)" &&
        finding.detail.find("--quick mode") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);
}

TEST(BenchDiff, CoresMismatchIsANoteNotARegression) {
  // Comparing runs from hosts with different core counts is
  // apples-to-oranges: the gate must surface it as a visible note
  // without failing (perf data from another machine is advisory).
  const auto baseline = tools::parse_bench(bench_doc(1'000'000, true));
  auto candidate = tools::parse_bench(bench_doc(1'000'000, true));
  candidate.cores = 128;
  const auto report = tools::diff_bench(baseline, candidate, {});
  EXPECT_FALSE(report.gate_failed);
  bool noted = false;
  for (const auto& finding : report.findings) {
    if (!finding.regression &&
        finding.detail.find("host fingerprint differs") !=
            std::string::npos &&
        finding.detail.find("128") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);
}

TEST(BenchDiff, WithinBandPasses) {
  const auto baseline = tools::parse_bench(bench_doc(1'000'000, true));
  const auto candidate = tools::parse_bench(bench_doc(1'100'000, true));
  tools::BenchDiffOptions options;
  options.rel_tol = 0.25;
  const auto report = tools::diff_bench(baseline, candidate, options);
  EXPECT_FALSE(report.gate_failed);
}

TEST(BenchDiff, RegressionBeyondBandFailsGate) {
  const auto baseline = tools::parse_bench(bench_doc(1'000'000, true));
  const auto candidate = tools::parse_bench(bench_doc(2'000'000, true));
  tools::BenchDiffOptions options;
  options.rel_tol = 0.25;
  options.abs_ns = 0;
  const auto report = tools::diff_bench(baseline, candidate, options);
  EXPECT_TRUE(report.gate_failed);
  bool flagged = false;
  for (const auto& finding : report.findings) {
    if (finding.regression &&
        finding.name == "grid.messages.round_trip") {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

// The fleet macro-bench rides the same gate: a population-throughput
// regression (hosts/s halved) must fail, and dropping the benchmark from
// the candidate document entirely must fail too — a silent removal is
// how a perf regression would classically dodge the gate.
std::string fleet_bench_doc(std::int64_t fleet_ns, bool with_fleet) {
  std::ostringstream out;
  out << "{\"vgrid_bench_version\":1,\n\"benchmarks\":[\n"
      << "{\"median_ns\":1000000,\"min_ns\":900000,"
      << "\"name\":\"core.fig5.end_to_end\",\"ops\":16,"
      << "\"ops_per_sec\":16000,\"reps\":3}";
  if (with_fleet) {
    out << ",\n{\"median_ns\":" << fleet_ns
        << ",\"min_ns\":" << fleet_ns - 1000
        << ",\"name\":\"fleet.hosts_per_sec\",\"ops\":1000,"
        << "\"ops_per_sec\":" << 1000.0 / (fleet_ns / 1e9)
        << ",\"reps\":3}";
  }
  out << "\n],\n\"host\":{\"compiler\":\"gcc 12\",\"cores\":4},\n"
      << "\"quick\":true,\n"
      << "\"scenario\":{\"hash\":\"abc\",\"name\":\"fleet-small\"}}\n";
  return out.str();
}

TEST(BenchDiff, FleetThroughputRegressionFailsGate) {
  const auto baseline = tools::parse_bench(fleet_bench_doc(25'000'000, true));
  const auto candidate =
      tools::parse_bench(fleet_bench_doc(50'000'000, true));
  tools::BenchDiffOptions options;
  options.rel_tol = 0.35;
  const auto report = tools::diff_bench(baseline, candidate, options);
  EXPECT_TRUE(report.gate_failed);
  bool flagged = false;
  for (const auto& finding : report.findings) {
    if (finding.regression && finding.name == "fleet.hosts_per_sec") {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(BenchDiff, DroppedFleetBenchmarkFailsGate) {
  const auto baseline = tools::parse_bench(fleet_bench_doc(25'000'000, true));
  const auto candidate =
      tools::parse_bench(fleet_bench_doc(25'000'000, false));
  const auto report = tools::diff_bench(baseline, candidate, {});
  EXPECT_TRUE(report.gate_failed);
}

TEST(BenchDiff, MissingBenchmarkIsARegressionNewOneIsANote) {
  const auto baseline = tools::parse_bench(bench_doc(1'000'000, true));
  const auto candidate = tools::parse_bench(bench_doc(1'000'000, false));
  const auto shrunk = tools::diff_bench(baseline, candidate, {});
  EXPECT_TRUE(shrunk.gate_failed);

  const auto grown = tools::diff_bench(candidate, baseline, {});
  EXPECT_FALSE(grown.gate_failed);
  bool noted = false;
  for (const auto& finding : grown.findings) {
    if (!finding.regression &&
        finding.name == "sim.event_queue.push_pop") {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);
}

TEST(BenchDiff, AbsNsFloorShieldsMicrosecondBenchesFromJitter) {
  // 10us -> 40us is 4x, but under a 50us absolute floor it is noise.
  const auto baseline = tools::parse_bench(bench_doc(10'000, false));
  const auto candidate = tools::parse_bench(bench_doc(40'000, false));
  tools::BenchDiffOptions options;  // default abs_ns = 50'000
  options.rel_tol = 0.0;
  const auto report = tools::diff_bench(baseline, candidate, options);
  EXPECT_FALSE(report.gate_failed);
}

TEST(BenchDiff, ImprovementsBlockCountsWinsAndTracksTheBest) {
  // Candidate is ~3.33x faster on round_trip and 2x on push_pop (both
  // beyond the band): the report must count both and name round_trip as
  // the best speedup. Note detail still nudges toward a baseline refresh.
  auto baseline = tools::parse_bench(bench_doc(1'000'000, true));
  auto candidate = tools::parse_bench(bench_doc(300'000, true));
  candidate.benchmarks[1].median_ns = 250'000;  // push_pop: 500us -> 250us
  tools::BenchDiffOptions options;
  options.rel_tol = 0.25;
  options.abs_ns = 0;
  const auto report = tools::diff_bench(baseline, candidate, options);
  EXPECT_FALSE(report.gate_failed);
  EXPECT_EQ(report.improvements.count, 2);
  EXPECT_EQ(report.improvements.best_name, "grid.messages.round_trip");
  EXPECT_NEAR(report.improvements.best_speedup, 1'000'000.0 / 300'000.0,
              1e-9);
  bool noted = false;
  for (const auto& finding : report.findings) {
    if (!finding.regression &&
        finding.name == "grid.messages.round_trip" &&
        finding.detail.find("improved") != std::string::npos) {
      noted = true;
    }
  }
  EXPECT_TRUE(noted);
}

TEST(BenchDiff, ImprovementsWithinBandDoNotCount) {
  // 10% faster sits inside the default 25% band: no improvement entry —
  // the block reports wins beyond noise, not jitter.
  const auto baseline = tools::parse_bench(bench_doc(1'000'000, true));
  const auto candidate = tools::parse_bench(bench_doc(900'000, true));
  tools::BenchDiffOptions options;
  options.abs_ns = 0;
  const auto report = tools::diff_bench(baseline, candidate, options);
  EXPECT_EQ(report.improvements.count, 0);
  EXPECT_TRUE(report.improvements.best_name.empty());
}

TEST(BenchDiff, RequiredBenchMissingFromCandidateFailsGate) {
  // --require pins newly added coverage: even when the baseline predates
  // the benchmark (so the coverage-shrank rule cannot fire), a candidate
  // without it must fail the gate.
  const auto baseline = tools::parse_bench(bench_doc(1'000'000, false));
  const auto candidate = tools::parse_bench(bench_doc(1'000'000, false));
  tools::BenchDiffOptions options;
  options.require.push_back("hw.machine.redistribute");
  const auto report = tools::diff_bench(baseline, candidate, options);
  EXPECT_TRUE(report.gate_failed);
  bool flagged = false;
  for (const auto& finding : report.findings) {
    if (finding.regression && finding.name == "hw.machine.redistribute" &&
        finding.detail.find("required") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(BenchDiff, RequiredBenchPresentPassesEvenWhenNewToBaseline) {
  // The required bench exists only in the candidate: satisfied requirement
  // plus the usual "new benchmark" note, no failure.
  const auto baseline = tools::parse_bench(bench_doc(1'000'000, false));
  const auto candidate = tools::parse_bench(bench_doc(1'000'000, true));
  tools::BenchDiffOptions options;
  options.require.push_back("sim.event_queue.push_pop");
  const auto report = tools::diff_bench(baseline, candidate, options);
  EXPECT_FALSE(report.gate_failed);
}

TEST(BenchDiff, ParserRejectsWrongVersionAndMalformedEntries) {
  EXPECT_THROW(
      tools::parse_bench("{\"vgrid_bench_version\":2,\"benchmarks\":[],"
                         "\"host\":{\"compiler\":\"g\",\"cores\":1},"
                         "\"quick\":true,"
                         "\"scenario\":{\"hash\":\"h\",\"name\":\"n\"}}"),
      std::runtime_error);
  EXPECT_THROW(tools::parse_bench("not json"), std::runtime_error);
}

}  // namespace
}  // namespace vgrid::obs
