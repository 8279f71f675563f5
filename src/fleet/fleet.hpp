#pragma once
// vgrid::fleet — population-scale simulation of a volunteer-computing
// fleet (ROADMAP item 1). Where the rest of core runs ONE paper testbed
// per experiment, a fleet run samples N host configurations from the
// scenario's [fleet] distributions (sampler.hpp), simulates one workunit
// on each host's own Testbed, and aggregates the per-host outcomes into
// obs::Histogram percentile summaries — never per-host output lines.
//
// Determinism contract (gated by `vgrid determinism-audit fleet` and
// ctest determinism.audit.fleet.jobs8): the summary and the metrics
// snapshot are byte-identical for ANY --jobs value, because
//  - host i's config comes from util::Rng::fork(seed, i), independent of
//    which shard or worker visits it;
//  - hosts are split into fixed-size shards fanned out over
//    core::TaskPool; each shard records into its own obs::Registry and
//    raw per-host values go into caller-preallocated slots indexed by
//    host — no shared accumulators;
//  - shard registries are merged in shard order after the run; obs
//    instruments are integral, so merge order reproduces serial
//    accumulation bit for bit.
//
// Each shard recycles one core::TestbedArena across its hosts, so a host
// costs no per-host event-queue/scheduler heap churn (the Testbed
// ownership refactor this layer motivated).
//
// FleetBug is the seeded-mutation hook mirroring mc's --inject-fault:
// each deliberate aggregation bug must be caught by selfcheck() — proven
// by the WILL_FAIL ctests fleet.finds.*.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleet/sampler.hpp"
#include "obs/event_log.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "scenario/scenario.hpp"

namespace vgrid::fleet {

/// Seeded aggregation mutations for the fleet.finds.* mutation tests.
enum class FleetBug {
  kNone,
  /// Summary percentiles report the bucket AFTER the one holding the
  /// requested rank.
  kPercentileOffByOne,
  /// The first shard's registry merge into the parent is silently
  /// skipped (caught by selfcheck: the aggregates stop matching the raw
  /// per-host outcomes).
  kDroppedShard,
  /// The first per-shard lifecycle sub-journal merge into the parent
  /// obs::EventLog is silently skipped (caught by the tails selfcheck:
  /// the journal's turnaround aggregates stop reconciling with
  /// fleet.workunit.turnaround_ms).
  kDroppedEventlogMerge,
  /// The first per-shard timeseries sub-series merge into the parent
  /// obs::Timeseries is silently skipped (caught by selfcheck: the
  /// sampler must hold exactly one checkpoint scrape per shard).
  kDroppedTimeseriesMerge,
};

/// Strict spelling for --inject-bug (percentile_off_by_one /
/// dropped_shard / dropped_eventlog_merge / dropped_timeseries_merge);
/// throws util::ConfigError on anything else.
FleetBug parse_fleet_bug(const std::string& text);

/// Flight-recorder ring capacity run_fleet defaults to: enough context
/// around any anomaly, bounded memory at --hosts 100000.
inline constexpr std::size_t kDefaultEventlogRing = 4096;

/// Live snapshot handed to FleetConfig::on_progress after each shard
/// completes. Approximate by design (completion order, not shard order);
/// purely observational — the deterministic outputs never depend on it.
struct FleetProgress {
  std::uint64_t hosts_done = 0;
  std::uint64_t hosts_total = 0;
  std::uint64_t shards_done = 0;
  std::size_t shards_total = 0;
  std::int64_t turnaround_p50_ms = 0;
  std::int64_t turnaround_p99_ms = 0;
};

struct FleetConfig {
  /// Hosts to simulate; 0 uses the scenario's [fleet] hosts value.
  std::uint64_t hosts = 0;
  /// TaskPool worker count; <= 1 runs serially. Never affects output.
  int jobs = 1;
  /// Override of the scenario's [fleet] seed.
  std::optional<std::uint64_t> seed;
  FleetBug inject_bug = FleetBug::kNone;
  /// Journal every host's lifecycle into FleetResult::event_log
  /// (anomalous lifecycles — volunteer deaths — always retained in
  /// full; normal ones ride the flight-recorder ring).
  bool eventlog = true;
  /// Ring capacity of that journal; 0 retains every trace.
  std::size_t eventlog_ring = kDefaultEventlogRing;
  /// When set, sample each shard's registry once at its logical
  /// checkpoint (t = (shard+1) × interval_ms) into
  /// FleetResult::timeseries. Per-shard sub-series merge in shard
  /// order, so the export is byte-identical for any --jobs value.
  std::optional<obs::Timeseries::Config> timeseries;
  /// Invoked after each shard completes, on the worker thread that
  /// finished it (`vgrid watch fleet`). Must be thread-safe and must not
  /// touch simulation state; null disables all progress accounting.
  std::function<void(const FleetProgress&)> on_progress;
};

/// Raw outcome of one host's workunit, in the integral units the obs
/// histograms record. Kept per host (40 B each) so selfcheck() and the
/// property tests can cross-check the aggregates against ground truth.
struct HostMetrics {
  std::int64_t cpu_ms = 0;         // guest CPU time, sim milliseconds
  std::int64_t turnaround_ms = 0;  // (cpu_ms + wasted_ms) / availability
  std::int64_t slowdown_permille = 0;  // 1000 * guest / analytic native
  std::int64_t wasted_ms = 0;  // CPU time discarded by a volunteer death
  std::int64_t deaths = 0;     // 1 when the volunteer vanished mid-run
};

struct FleetResult {
  std::uint64_t hosts = 0;
  std::uint64_t seed = 0;
  std::size_t shards = 0;
  /// Fleet aggregates plus the sim-layer instruments of every shard,
  /// merged in shard order.
  std::unique_ptr<obs::Registry> registry;
  /// Per-host ground truth, indexed by host.
  std::vector<HostMetrics> raw;
  /// Lifecycle journal (flight-recorder mode by default); null when
  /// FleetConfig::eventlog is off. Sub-journals merge in shard order,
  /// so render_journal() is byte-identical for any --jobs value.
  std::unique_ptr<obs::EventLog> event_log;
  /// Shard-checkpoint time series (one scrape of each shard's registry);
  /// null when FleetConfig::timeseries is unset.
  std::unique_ptr<obs::Timeseries> timeseries;
};

/// Hosts per TaskPool shard. Fixed (never derived from --jobs): shard
/// boundaries are part of the run's identity, so worker count cannot
/// change where a host's draws or observations land.
inline constexpr std::uint64_t kShardHosts = 512;

/// Bucket layouts of the fleet histograms (shared with tests).
std::vector<std::int64_t> duration_ms_buckets();
std::vector<std::int64_t> slowdown_permille_buckets();

/// Pre-create the fleet instrument taxonomy (zero-valued): the three
/// workunit histograms, the simulated-host counter, and one labeled
/// host counter per declared tier/profile/priority.
void register_fleet_instruments(obs::Registry& registry,
                                const scenario::FleetSpec& spec);

/// Simulate one workunit on one sampled host: its tier's machine, its
/// VMM profile and priority, one Einstein-mix compute step of
/// workunit_gigaops. Exposed for the property tests. Churn-free: the
/// death model is applied afterwards by apply_churn.
HostMetrics simulate_host(const scenario::Scenario& scenario,
                          const HostConfig& host);

/// Apply a churn draw to a simulated host's metrics: on a death the
/// wasted attempt (lost_fraction of the compute) is added to the bill
/// and turnaround is re-stretched over the full cpu + wasted time.
/// A no-op when the draw is not a death — so
/// simulate_host + apply_churn(sample_death(...)) reproduces exactly
/// what run_fleet records for the same host.
void apply_churn(HostMetrics& metrics, const HostConfig& host,
                 const DeathDraw& draw);

/// Run the whole fleet. Throws util::ConfigError when the scenario has
/// no [fleet] section.
FleetResult run_fleet(const scenario::Scenario& scenario,
                      const FleetConfig& config);

/// Percentile/extreme digest of one histogram, as printed in the
/// summary. `bug` routes through the deliberately broken percentile
/// walk when kPercentileOffByOne is injected.
struct SummaryStats {
  std::int64_t p50 = 0;
  std::int64_t p90 = 0;
  std::int64_t p99 = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::int64_t mean = 0;
};
SummaryStats summarize(const obs::Histogram& histogram,
                       FleetBug bug = FleetBug::kNone);

/// Canonical byte-stable summary (the golden-file artifact). Never
/// mentions --jobs: the text must be identical for any worker count.
std::string format_summary(const scenario::Scenario& scenario,
                           const FleetResult& result,
                           FleetBug bug = FleetBug::kNone);

/// Cross-check the merged aggregates against the raw per-host values:
/// histogram count/sum/min/max must match exactly, and each summary
/// percentile must land inside the bucket containing the exact
/// nearest-rank value. Returns human-readable violations (empty = ok).
/// This is what gives the mutation tests their teeth.
std::vector<std::string> selfcheck(const FleetResult& result,
                                   FleetBug bug = FleetBug::kNone);

}  // namespace vgrid::fleet
