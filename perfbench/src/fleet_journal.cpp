// Workload `fleet-journal`: the population-scale set-up — fleet::run_fleet
// on `fleet-small` with 100k hosts, four workers and the lifecycle journal
// on (default 4096-trace flight-recorder ring), then format_summary and
// selfcheck. Each host simulates little, so host sampling, the TaskPool
// shard fan-out, the shard-order merges and the obs::EventLog dominate.
//
// One operation is run_fleet + format_summary + selfcheck. Every operation
// runs at the same seed, so each summary must match the first one.

#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/task_pool.hpp"
#include "fleet/fleet.hpp"
#include "scenario/scenario.hpp"

namespace vgrid::perfbench {
namespace {

constexpr std::uint64_t kHosts = 100'000;
constexpr int kJobs = 4;
constexpr int kSetups = 5;

struct Op {
  fleet::FleetResult result;
  std::string summary;
  std::vector<std::string> violations;
  double run_s = 0.0;
  double summary_s = 0.0;
  double selfcheck_s = 0.0;
  double wall_s = 0.0;
};

Op run_op(const scenario::Scenario& scenario, const fleet::FleetConfig& config,
          SpanRecorder* spans, std::uint64_t run) {
  Op op;
  const std::int64_t start = now_ns();
  ScopedSpan op_span(spans, "fleet.op", 0, run);
  {
    ScopedSpan span(spans, "fleet.run_fleet", op_span.id(), run);
    op.result = fleet::run_fleet(scenario, config);
  }
  const std::int64_t ran = now_ns();
  {
    ScopedSpan span(spans, "fleet.format_summary", op_span.id(), run);
    op.summary = fleet::format_summary(scenario, op.result);
  }
  const std::int64_t summarized = now_ns();
  {
    ScopedSpan span(spans, "fleet.selfcheck", op_span.id(), run);
    op.violations = fleet::selfcheck(op.result);
  }
  const std::int64_t end = now_ns();
  op.run_s = static_cast<double>(ran - start) / 1e9;
  op.summary_s = static_cast<double>(summarized - ran) / 1e9;
  op.selfcheck_s = static_cast<double>(end - summarized) / 1e9;
  op.wall_s = static_cast<double>(end - start) / 1e9;
  return op;
}

void check_op(const Op& op, const std::string* first_summary,
              Report& report) {
  report.check(op.violations.empty(),
               "fleet selfcheck: " + std::to_string(op.violations.size()) +
                   " violations" +
                   (op.violations.empty() ? "" : ", first: " + op.violations[0]));
  report.check(op.result.hosts == kHosts,
               "fleet simulated " + std::to_string(op.result.hosts) +
                   " hosts, expected " + std::to_string(kHosts));
  if (first_summary) {
    report.check(op.summary == *first_summary,
                 "fleet summary differs from the first run at one seed");
  }
}

}  // namespace

void run_fleet_journal(const Options& options, Report& report) {
  // Set-up, repeated: scenario load, fleet configuration and one untimed
  // warm-up run (cold first runs are about twice as slow).
  std::vector<double> setup_s;
  std::vector<double> load_s;
  scenario::Scenario scenario;
  fleet::FleetConfig config;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    scenario = scenario::load("fleet-small");
    load_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    config = fleet::FleetConfig{};
    config.hosts = kHosts;
    config.jobs = kJobs;
    config.seed = options.seed;
    run_op(scenario, config, nullptr, 0);
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }
  fleet::FleetConfig no_journal = config;
  no_journal.eventlog = false;

  // Timed operations. The traced run rotates three variants: untraced,
  // traced (TaskPool worker spans and the benchmark's spans; the counters
  // come from the run's own merged registry), and untraced with the
  // journal off.
  enum Variant { kPlain, kTraced, kNoJournal };
  const int variants = options.trace ? 3 : 1;
  SpanRecorder spans;
  std::string first_summary;
  bool have_first = false;
  std::vector<double> wall[3];
  std::vector<double> run_s[3];
  std::vector<double> summary_s;
  std::vector<double> selfcheck_s;
  std::vector<double> busy_frac;
  std::vector<report::WorkerSpan> first_workers;
  std::string first_snapshot;
  obs::Registry first_registry;
  bool have_registry = false;
  double wasted_ratio = 0.0;
  std::uint64_t retained = 0;
  std::uint64_t anomalous = 0;
  std::uint64_t churn = 0;
  const std::int64_t loop_start = now_ns();
  for (std::uint64_t n = 0;; ++n) {
    const auto variant = static_cast<Variant>(n % variants);
    const double elapsed = static_cast<double>(now_ns() - loop_start) / 1e9;
    if (elapsed >= options.seconds && n >= 2u * variants && variant == 0) {
      break;
    }
    Op op;
    if (variant == kTraced) {
      // Each shard task records into a registry of its own; run_fleet
      // merges them into op.result.registry in shard order.
      std::vector<report::WorkerSpan> workers;
      core::set_worker_span_capture(&workers);
      op = run_op(scenario, config, &spans, n);
      core::set_worker_span_capture(nullptr);
      busy_frac.push_back(busy_fraction(workers, kJobs, op.run_s));
      const std::string snapshot = op.result.registry->snapshot_json();
      if (!have_registry) {
        first_snapshot = snapshot;
        first_registry.merge_from(*op.result.registry);
        first_workers = std::move(workers);
        have_registry = true;
        std::int64_t wasted = 0;
        std::int64_t useful = 0;
        for (const fleet::HostMetrics& host : op.result.raw) {
          wasted += host.wasted_ms;
          useful += host.cpu_ms;
        }
        wasted_ratio = wasted + useful > 0
                           ? static_cast<double>(wasted) /
                                 static_cast<double>(wasted + useful)
                           : 0.0;
        if (report.check(op.result.event_log != nullptr,
                         "fleet run with the journal on has no journal")) {
          retained = op.result.event_log->retained_count();
          anomalous = op.result.event_log->traces_anomalous();
          churn = op.result.event_log->ring_churn();
        }
      } else {
        report.check(snapshot == first_snapshot,
                     "fleet counters differ between traced runs at one seed");
      }
    } else {
      op = run_op(scenario, variant == kNoJournal ? no_journal : config,
                  nullptr, n);
    }
    wall[variant].push_back(op.wall_s);
    run_s[variant].push_back(op.run_s);
    if (variant == kPlain) {
      summary_s.push_back(op.summary_s);
      selfcheck_s.push_back(op.selfcheck_s);
    }
    check_op(op, have_first ? &first_summary : nullptr, report);
    if (!have_first && variant == kPlain) {
      first_summary = op.summary;
      have_first = true;
    }
  }

  const double op_s = median(wall[kPlain]);
  const std::size_t plain = wall[kPlain].size();
  if (!options.trace) {
    report.metric("setup_s", median(setup_s), "s", setup_s.size());
    report.metric("throughput_per_s", static_cast<double>(kHosts) / op_s,
                  "1/s", plain);
    report.metric("op_p50_ms", op_s * 1e3, "ms", plain);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.note("hosts_per_s", static_cast<double>(kHosts) / op_s, "1/s",
                plain);
    return;
  }

  const std::size_t traced = wall[kTraced].size();
  report.metric("scenario.load_s", median(load_s), "s", load_s.size());
  report.metric("core.worker_busy_frac", median(busy_frac), "ratio", traced);
  report_simulated_layers(report, first_registry, median(run_s[kPlain]),
                          plain);
  report.metric("fleet.run_s", median(run_s[kPlain]), "s", plain);
  report.metric("fleet.summary_s", median(summary_s), "s", plain);
  report.metric("fleet.selfcheck_s", median(selfcheck_s), "s", plain);
  const auto count = [&](const char* metric, const char* counter) {
    report.metric(metric,
                  static_cast<double>(counter_sum(first_registry, counter)),
                  "count", 1);
  };
  count("fleet.hosts_simulated", "fleet.hosts.simulated");
  count("fleet.deaths", "fleet.hosts.deaths");
  report.metric("fleet.wasted_ratio", wasted_ratio, "ratio", 1);
  report.metric("obs.journal_retained", static_cast<double>(retained), "count",
                1);
  report.metric("obs.journal_anomalous", static_cast<double>(anomalous),
                "count", 1);
  report.metric("obs.journal_ring_churn", static_cast<double>(churn), "count",
                1);
  report.metric("obs.journal_overhead",
                median(run_s[kPlain]) / median(run_s[kNoJournal]), "ratio",
                run_s[kNoJournal].size());
  report.metric("obs.tracing_overhead", (median(wall[kTraced]) - op_s) * 1e3,
                "ms", traced);
  if (!options.trace_out.empty()) {
    write_trace(options.trace_out, options, spans.spans(), first_snapshot,
                first_workers);
  }
}

}  // namespace vgrid::perfbench
