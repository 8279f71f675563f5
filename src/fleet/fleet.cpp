#include "fleet/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "core/task_pool.hpp"
#include "core/testbed.hpp"
#include "hw/cpu_chip.hpp"
#include "hw/mix.hpp"
#include "obs/event_log.hpp"
#include "obs/profiler.hpp"
#include "os/program.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "vmm/virtual_machine.hpp"

namespace vgrid::fleet {

namespace {

constexpr const char* kCpuMs = "fleet.workunit.cpu_ms";
constexpr const char* kTurnaroundMs = "fleet.workunit.turnaround_ms";
constexpr const char* kSlowdownPermille = "fleet.workunit.slowdown_permille";
constexpr const char* kWastedMs = "fleet.workunit.wasted_ms";

/// Instruments one shard records into, resolved once per shard from its
/// own registry.
struct ShardInstruments {
  explicit ShardInstruments(obs::Registry& registry) {
    simulated = &registry.counter("fleet.hosts.simulated");
    shards_completed = &registry.counter("fleet.shards.completed");
    deaths = &registry.counter("fleet.hosts.deaths");
    cpu_ms = &registry.histogram(kCpuMs, duration_ms_buckets());
    turnaround_ms = &registry.histogram(kTurnaroundMs, duration_ms_buckets());
    slowdown_permille = &registry.histogram(kSlowdownPermille,
                                            slowdown_permille_buckets());
    wasted_ms = &registry.histogram(kWastedMs, duration_ms_buckets());
  }

  obs::Counter& by(obs::Registry& registry, const char* name,
                   const char* label, const std::string& value) {
    return registry.counter(name, {{label, value}});
  }

  obs::Counter* simulated;
  obs::Counter* shards_completed;
  obs::Counter* deaths;
  obs::Histogram* cpu_ms;
  obs::Histogram* turnaround_ms;
  obs::Histogram* slowdown_permille;
  obs::Histogram* wasted_ms;
};

HostMetrics simulate_host_impl(const scenario::Scenario& scenario,
                               const HostConfig& host,
                               core::TestbedArena* arena) {
  const hw::MachineConfig machine =
      scenario::fleet_tier_machine(scenario, host.tier);
  const vmm::VmmProfile* profile = scenario.profile_by_name(host.profile);
  if (profile == nullptr) {
    throw util::ConfigError("fleet: host profile '" + host.profile +
                            "' is not in the scenario's profile set");
  }
  core::Testbed testbed(machine, scenario.scheduler, scenario.host_os, arena);
  vmm::VmConfig config;
  config.name = host.profile;
  config.priority = host.priority;
  vmm::VirtualMachine vm(testbed.scheduler(), *profile, config);
  const double instructions = host.workunit_gigaops * 1e9;
  const hw::InstructionMix mix = hw::mixes::einstein();
  std::vector<os::Step> steps;
  steps.push_back(os::ComputeStep{instructions, mix, {}});
  auto& thread = vm.run_guest(
      "workunit", std::make_unique<os::StepListProgram>(std::move(steps)));
  const double cpu_seconds = testbed.run_until_done(thread);

  // Analytic native time for the same workunit on an idle core of this
  // tier — the denominator of the intrusiveness (slowdown) metric.
  const hw::CpuChip chip(machine.chip);
  const double native_seconds =
      chip.seconds_per_instruction(mix, {}) * instructions;
  const double slowdown =
      native_seconds > 0.0 ? cpu_seconds / native_seconds : 0.0;

  HostMetrics metrics;
  metrics.cpu_ms = std::llround(cpu_seconds * 1e3);
  metrics.turnaround_ms =
      std::llround(cpu_seconds / host.availability * 1e3);
  metrics.slowdown_permille = std::llround(slowdown * 1e3);
  return metrics;
}

/// Journal one host's whole lifecycle as a causal trace (trace id =
/// host_index + 1, label = VMM profile) on a logical ms-resolution
/// clock. The component values are chosen so the trace total equals
/// turnaround_ms EXACTLY: queue-wait (availability stretch) + compute
/// (cpu_ms) + retry (wasted_ms) — which is what lets `vgrid tails`
/// reconcile the journal against fleet.workunit.turnaround_ms.
void record_host_trace([[maybe_unused]] std::uint64_t host_index,
                       [[maybe_unused]] const HostConfig& host,
                       [[maybe_unused]] const HostMetrics& metrics,
                       [[maybe_unused]] const DeathDraw& draw) {
#if defined(VGRID_EVENTLOG_ENABLED) && VGRID_EVENTLOG_ENABLED
  constexpr std::int64_t kMsNs = 1'000'000;
  const std::uint64_t trace_id = host_index + 1;
  const std::int64_t wait_ms =
      metrics.turnaround_ms - metrics.cpu_ms - metrics.wasted_ms;
  EVT_TRACE_OPEN(trace_id, 0, host.profile);
  EVT_APPEND(trace_id, obs::EventKind::kCreated, 0, 0,
             std::llround(host.workunit_gigaops * 1e3));
  std::int64_t t_ns = wait_ms * kMsNs;
  EVT_APPEND(trace_id, obs::EventKind::kDispatched, t_ns, wait_ms, 0);
  EVT_APPEND(trace_id, obs::EventKind::kComputing, t_ns, 0, 0);
  if (draw.died) {
    t_ns += metrics.wasted_ms * kMsNs;
    EVT_APPEND(trace_id, obs::EventKind::kExpired, t_ns, metrics.wasted_ms,
               std::llround(draw.lost_fraction * host.workunit_gigaops * 1e3));
    EVT_APPEND(trace_id, obs::EventKind::kReissued, t_ns, 0, 0);
    EVT_APPEND(trace_id, obs::EventKind::kComputing, t_ns, 0, 0);
  }
  t_ns += metrics.cpu_ms * kMsNs;
  EVT_APPEND(trace_id, obs::EventKind::kSubmitted, t_ns, metrics.cpu_ms, 0);
  EVT_APPEND(trace_id, obs::EventKind::kValidated, t_ns, 0, 0);
  EVT_APPEND(trace_id, obs::EventKind::kCredited, t_ns, 0, metrics.cpu_ms);
  EVT_TRACE_CLOSE(trace_id);
#endif
}

/// The deliberately broken percentile walk behind --inject-bug
/// percentile_off_by_one: it finds the right bucket, then reports the
/// NEXT bucket's upper bound.
std::int64_t buggy_percentile(const obs::Histogram& histogram, double q) {
  const std::uint64_t count = histogram.count();
  if (count == 0) return 0;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  const std::vector<std::int64_t>& bounds = histogram.bounds();
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i <= bounds.size(); ++i) {
    cumulative += histogram.bucket_count(i);
    if (cumulative >= rank) {
      const std::size_t next = i + 1;
      if (next >= bounds.size()) return histogram.max();
      return bounds[next];
    }
  }
  return histogram.max();
}

std::int64_t percentile_est(const obs::Histogram& histogram, double q,
                            FleetBug bug) {
  return bug == FleetBug::kPercentileOffByOne ? buggy_percentile(histogram, q)
                                              : histogram.percentile(q);
}

void append_counts(std::string& out, obs::Registry& registry,
                   const char* counter_name, const char* label,
                   const scenario::WeightedChoice& choice) {
  for (const scenario::WeightedChoice::Item& item : choice.items) {
    out += ' ';
    out += item.name + "=" +
           std::to_string(
               registry.counter(counter_name, {{label, item.name}}).value());
  }
}

void append_stats(std::string& out, const char* name,
                  const obs::Histogram& histogram, FleetBug bug) {
  const SummaryStats stats = summarize(histogram, bug);
  out += util::format(
      "%s count=%llu mean=%lld p50=%lld p90=%lld p99=%lld min=%lld "
      "max=%lld\n",
      name, static_cast<unsigned long long>(histogram.count()),
      static_cast<long long>(stats.mean), static_cast<long long>(stats.p50),
      static_cast<long long>(stats.p90), static_cast<long long>(stats.p99),
      static_cast<long long>(stats.min), static_cast<long long>(stats.max));
}

}  // namespace

FleetBug parse_fleet_bug(const std::string& text) {
  if (text == "percentile_off_by_one") return FleetBug::kPercentileOffByOne;
  if (text == "dropped_shard") return FleetBug::kDroppedShard;
  if (text == "dropped_eventlog_merge") {
    return FleetBug::kDroppedEventlogMerge;
  }
  if (text == "dropped_timeseries_merge") {
    return FleetBug::kDroppedTimeseriesMerge;
  }
  throw util::ConfigError(
      "unknown fleet bug '" + text +
      "'; use percentile_off_by_one, dropped_shard, "
      "dropped_eventlog_merge, or dropped_timeseries_merge");
}

std::vector<std::int64_t> duration_ms_buckets() {
  return {25,   50,   100,   200,   400,   800,   1600,
          3200, 6400, 12800, 25600, 51200, 102400};
}

std::vector<std::int64_t> slowdown_permille_buckets() {
  return {1000, 1020, 1050, 1100, 1150, 1200,
          1300, 1400, 1600, 2000, 3000, 5000};
}

void register_fleet_instruments(obs::Registry& registry,
                                const scenario::FleetSpec& spec) {
  registry.counter("fleet.hosts.simulated");
  registry.counter("fleet.shards.completed");
  registry.counter("fleet.hosts.deaths");
  registry.histogram(kCpuMs, duration_ms_buckets());
  registry.histogram(kTurnaroundMs, duration_ms_buckets());
  registry.histogram(kSlowdownPermille, slowdown_permille_buckets());
  registry.histogram(kWastedMs, duration_ms_buckets());
  for (const scenario::WeightedChoice::Item& item : spec.tiers.items) {
    registry.counter("fleet.hosts.by_tier", {{"tier", item.name}});
  }
  for (const scenario::WeightedChoice::Item& item : spec.profiles.items) {
    registry.counter("fleet.hosts.by_profile", {{"profile", item.name}});
  }
  for (const scenario::WeightedChoice::Item& item : spec.priorities.items) {
    registry.counter("fleet.hosts.by_priority", {{"priority", item.name}});
  }
}

HostMetrics simulate_host(const scenario::Scenario& scenario,
                          const HostConfig& host) {
  return simulate_host_impl(scenario, host, nullptr);
}

void apply_churn(HostMetrics& metrics, const HostConfig& host,
                 const DeathDraw& draw) {
  if (!draw.died) return;
  metrics.deaths = 1;
  metrics.wasted_ms = std::llround(
      draw.lost_fraction * static_cast<double>(metrics.cpu_ms));
  // Re-stretch over the full (useful + wasted) compute. availability is
  // in (0, 1], so turnaround_ms >= cpu_ms + wasted_ms holds and the
  // journal's queue-wait component stays non-negative.
  metrics.turnaround_ms = std::llround(
      static_cast<double>(metrics.cpu_ms + metrics.wasted_ms) /
      host.availability);
}

FleetResult run_fleet(const scenario::Scenario& scenario,
                      const FleetConfig& config) {
  PROF_SCOPE("fleet.run");
  if (!scenario.fleet) {
    throw util::ConfigError(
        "scenario '" + scenario.name +
        "' has no [fleet] section; add one or use --scenario fleet-small");
  }
  const scenario::FleetSpec& spec = *scenario.fleet;

  FleetResult result;
  result.hosts = config.hosts != 0 ? config.hosts : spec.hosts;
  result.seed = config.seed.value_or(spec.seed);
  result.shards =
      static_cast<std::size_t>((result.hosts + kShardHosts - 1) / kShardHosts);
  result.registry = std::make_unique<obs::Registry>();
  register_fleet_instruments(*result.registry, spec);
  if (config.inject_bug == FleetBug::kDroppedShard && result.shards > 1) {
    result.registry->inject_dropped_merge_for_test();
  }
  result.raw.resize(result.hosts);
  if (config.eventlog) {
    obs::EventLog::Config journal;
    journal.ring_capacity = config.eventlog_ring;
    result.event_log = std::make_unique<obs::EventLog>(std::move(journal));
    if (config.inject_bug == FleetBug::kDroppedEventlogMerge) {
      result.event_log->inject_dropped_merge_for_test();
    }
  }

  // Time-resolved sampling rides LOGICAL shard checkpoints: each shard
  // scrapes its own registry exactly once, at t = (shard+1) × interval,
  // into a per-shard sub-series (shared-nothing, like the registries).
  // The per-host testbed timer stays disarmed — run_fleet never installs
  // an ambient Timeseries — so sampling costs one scrape per 512 hosts.
  std::vector<std::unique_ptr<obs::Timeseries>> shard_timeseries;
  if (config.timeseries) {
    result.timeseries = std::make_unique<obs::Timeseries>(*config.timeseries);
    if (config.inject_bug == FleetBug::kDroppedTimeseriesMerge) {
      result.timeseries->inject_dropped_merge_for_test();
    }
    shard_timeseries.reserve(result.shards);
    for (std::size_t i = 0; i < result.shards; ++i) {
      shard_timeseries.push_back(
          std::make_unique<obs::Timeseries>(*config.timeseries));
    }
  }

  // Live-progress plumbing (observability only — never touches the
  // simulation or the deterministic outputs): shards bump the shared
  // atomics and observe turnaround into the progress histogram as they
  // finish, and the callback renders whatever is there so far.
  std::atomic<std::uint64_t> hosts_done{0};
  std::atomic<std::uint64_t> shards_done{0};
  obs::Registry progress_registry;
  obs::Histogram* progress_turnaround =
      config.on_progress
          ? &progress_registry.histogram(kTurnaroundMs, duration_ms_buckets())
          : nullptr;

  core::TaskPool pool(config.jobs);
  // The parent registry and journal ride the pool run as ambient sinks:
  // TaskPool forks one registry and one sub-journal per shard and merges
  // them back in shard order. Raw outcomes go into result.raw slots
  // indexed by host. All of it is shared-nothing, so worker count and
  // completion order cannot reach the output.
  obs::ScopedRegistry registry_scope(result.registry.get());
  obs::ScopedEventLog journal_scope(result.event_log.get());
  pool.run(
      result.shards,
      [&](std::size_t shard) {
        obs::Registry& registry = *obs::current();
        ShardInstruments instruments(registry);
        core::TestbedArena arena;
        const std::uint64_t first =
            static_cast<std::uint64_t>(shard) * kShardHosts;
        const std::uint64_t last =
            std::min(result.hosts, first + kShardHosts);
        for (std::uint64_t host_index = first; host_index < last;
             ++host_index) {
          const HostConfig host =
              sample_host(spec, result.seed, host_index);
          HostMetrics metrics = simulate_host_impl(scenario, host, &arena);
          const DeathDraw draw =
              sample_death(host, result.seed, host_index);
          apply_churn(metrics, host, draw);
          result.raw[host_index] = metrics;
          instruments.simulated->add();
          if (metrics.deaths != 0) instruments.deaths->add();
          instruments
              .by(registry, "fleet.hosts.by_tier", "tier", host.tier)
              .add();
          instruments
              .by(registry, "fleet.hosts.by_profile", "profile", host.profile)
              .add();
          instruments
              .by(registry, "fleet.hosts.by_priority", "priority",
                  os::to_string(host.priority))
              .add();
          instruments.cpu_ms->observe(metrics.cpu_ms);
          instruments.turnaround_ms->observe(metrics.turnaround_ms);
          instruments.slowdown_permille->observe(metrics.slowdown_permille);
          instruments.wasted_ms->observe(metrics.wasted_ms);
          record_host_trace(host_index, host, metrics, draw);
          if (progress_turnaround != nullptr) {
            progress_turnaround->observe(metrics.turnaround_ms);
          }
        }
        instruments.shards_completed->add();
        if (!shard_timeseries.empty()) {
          // The shard's logical checkpoint: one deterministic scrape of
          // its finished registry, stamped with checkpoint time.
          shard_timeseries[shard]->sample(
              registry, static_cast<std::int64_t>(shard + 1) *
                            config.timeseries->interval_ms);
        }
        hosts_done.fetch_add(last - first, std::memory_order_relaxed);
        const std::uint64_t done =
            shards_done.fetch_add(1, std::memory_order_relaxed) + 1;
        if (config.on_progress) {
          FleetProgress progress;
          progress.hosts_done = hosts_done.load(std::memory_order_relaxed);
          progress.hosts_total = result.hosts;
          progress.shards_done = done;
          progress.shards_total = result.shards;
          progress.turnaround_p50_ms = progress_turnaround->percentile(0.50);
          progress.turnaround_p99_ms = progress_turnaround->percentile(0.99);
          config.on_progress(progress);
        }
      },
      nullptr, "fleet-shard");

  // Timeseries sub-series fold in shard order too (the armed
  // dropped-merge mutation silently skips the first fold; selfcheck's
  // one-scrape-per-shard invariant catches it).
  for (const auto& sub_series : shard_timeseries) {
    result.timeseries->merge_from(*sub_series);
  }
  return result;
}

SummaryStats summarize(const obs::Histogram& histogram, FleetBug bug) {
  SummaryStats stats;
  const std::uint64_t count = histogram.count();
  if (count == 0) return stats;
  stats.min = histogram.min();
  stats.max = histogram.max();
  stats.mean = histogram.sum() / static_cast<std::int64_t>(count);
  stats.p50 = percentile_est(histogram, 0.50, bug);
  stats.p90 = percentile_est(histogram, 0.90, bug);
  stats.p99 = percentile_est(histogram, 0.99, bug);
  return stats;
}

std::string format_summary(const scenario::Scenario& scenario,
                           const FleetResult& result, FleetBug bug) {
  if (!scenario.fleet) {
    throw util::ConfigError("format_summary: scenario has no [fleet]");
  }
  const scenario::FleetSpec& spec = *scenario.fleet;
  obs::Registry& registry = *result.registry;
  std::string out;
  out += "=== fleet summary (vgrid fleet v1) ===\n";
  out += "scenario " + scenario.name + " " + scenario.hash_hex() + "\n";
  out += "hosts " + std::to_string(result.hosts) + "\n";
  out += "seed " + std::to_string(result.seed) + "\n";
  out += "shards " + std::to_string(result.shards) + "\n";
  out += "hosts.by_priority";
  append_counts(out, registry, "fleet.hosts.by_priority", "priority",
                spec.priorities);
  out += "\nhosts.by_profile";
  append_counts(out, registry, "fleet.hosts.by_profile", "profile",
                spec.profiles);
  out += "\nhosts.by_tier";
  append_counts(out, registry, "fleet.hosts.by_tier", "tier", spec.tiers);
  out += "\nhosts.deaths " +
         std::to_string(registry.counter("fleet.hosts.deaths").value()) +
         "\n";
  append_stats(out, "workunit.cpu_ms",
               registry.histogram(kCpuMs, duration_ms_buckets()), bug);
  append_stats(out, "workunit.turnaround_ms",
               registry.histogram(kTurnaroundMs, duration_ms_buckets()), bug);
  append_stats(
      out, "workunit.slowdown_permille",
      registry.histogram(kSlowdownPermille, slowdown_permille_buckets()),
      bug);
  append_stats(out, "workunit.wasted_ms",
               registry.histogram(kWastedMs, duration_ms_buckets()), bug);
  return out;
}

std::vector<std::string> selfcheck(const FleetResult& result, FleetBug bug) {
  std::vector<std::string> violations;
  obs::Registry& registry = *result.registry;

  // The shard-checkpoint sampler holds exactly one scrape per shard; a
  // dropped sub-series merge (or a lost checkpoint) breaks this count.
  if (result.timeseries != nullptr &&
      result.timeseries->samples_taken() != result.shards) {
    violations.push_back(util::format(
        "timeseries: %llu checkpoint scrapes for %llu shards",
        static_cast<unsigned long long>(result.timeseries->samples_taken()),
        static_cast<unsigned long long>(result.shards)));
  }

  struct Metric {
    const char* name;
    std::vector<std::int64_t> bounds;
    std::int64_t HostMetrics::* field;
  };
  const Metric metrics[] = {
      {kCpuMs, duration_ms_buckets(), &HostMetrics::cpu_ms},
      {kTurnaroundMs, duration_ms_buckets(), &HostMetrics::turnaround_ms},
      {kSlowdownPermille, slowdown_permille_buckets(),
       &HostMetrics::slowdown_permille},
      {kWastedMs, duration_ms_buckets(), &HostMetrics::wasted_ms},
  };

  for (const Metric& metric : metrics) {
    const obs::Histogram& histogram =
        registry.histogram(metric.name, metric.bounds);
    std::vector<std::int64_t> values;
    values.reserve(result.raw.size());
    std::int64_t exact_sum = 0;
    for (const HostMetrics& host : result.raw) {
      values.push_back(host.*metric.field);
      exact_sum += host.*metric.field;
    }
    std::sort(values.begin(), values.end());

    if (histogram.count() != result.hosts) {
      violations.push_back(util::format(
          "%s: aggregated %llu observations for %llu hosts", metric.name,
          static_cast<unsigned long long>(histogram.count()),
          static_cast<unsigned long long>(result.hosts)));
      continue;  // rank math below assumes a complete histogram
    }
    if (values.empty()) continue;
    if (histogram.sum() != exact_sum) {
      violations.push_back(util::format(
          "%s: aggregated sum %lld != exact sum %lld", metric.name,
          static_cast<long long>(histogram.sum()),
          static_cast<long long>(exact_sum)));
    }
    if (histogram.min() != values.front() ||
        histogram.max() != values.back()) {
      violations.push_back(util::format(
          "%s: aggregated extremes [%lld, %lld] != exact [%lld, %lld]",
          metric.name, static_cast<long long>(histogram.min()),
          static_cast<long long>(histogram.max()),
          static_cast<long long>(values.front()),
          static_cast<long long>(values.back())));
    }

    const SummaryStats stats = summarize(histogram, bug);
    const struct {
      double q;
      const char* label;
      std::int64_t estimate;
    } quantiles[] = {
        {0.50, "p50", stats.p50},
        {0.90, "p90", stats.p90},
        {0.99, "p99", stats.p99},
    };
    for (const auto& quantile : quantiles) {
      const std::size_t rank = std::min<std::size_t>(
          values.size() - 1,
          static_cast<std::size_t>(std::ceil(
              quantile.q * static_cast<double>(values.size()))) -
              1);
      const std::int64_t exact = values[rank];
      // The estimate must land in the bucket containing the exact
      // nearest-rank value (±1 for integer rounding) — the tightest
      // guarantee a fixed-bucket histogram gives.
      std::size_t bucket = metric.bounds.size();
      for (std::size_t i = 0; i < metric.bounds.size(); ++i) {
        if (exact <= metric.bounds[i]) {
          bucket = i;
          break;
        }
      }
      const std::int64_t lower =
          bucket == 0 ? values.front() : metric.bounds[bucket - 1];
      const std::int64_t upper = bucket == metric.bounds.size()
                                     ? values.back()
                                     : metric.bounds[bucket];
      if (quantile.estimate < std::min(lower, values.front()) - 1 ||
          quantile.estimate > upper + 1) {
        violations.push_back(util::format(
            "%s: %s estimate %lld outside bucket [%lld, %lld] holding the "
            "exact value %lld",
            metric.name, quantile.label,
            static_cast<long long>(quantile.estimate),
            static_cast<long long>(lower), static_cast<long long>(upper),
            static_cast<long long>(exact)));
      }
    }
  }
  return violations;
}

}  // namespace vgrid::fleet
