// vgrid — command-line front end of the library. Every command, the flags
// it declares and a line of help live in one table, kCommands at the end
// of this file; `vgrid` with no arguments prints the usage generated from
// it.

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/cli_args.hpp"
#include "core/availability.hpp"
#include "obs/context.hpp"
#include "obs/event_log.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/timeseries.hpp"
#include "perf_harness.hpp"
#include "report/profile_export.hpp"
#include "report/progress.hpp"
#include "report/timeseries_export.hpp"
#include "core/testbed.hpp"
#include "core/experiments.hpp"
#include "fleet/fleet.hpp"
#include "core/guest_perf.hpp"
#include "core/host_impact.hpp"
#include "grid/client.hpp"
#include "grid/deployment.hpp"
#include "grid/server.hpp"
#include "grid/server_logic.hpp"
#include "util/clock.hpp"
#include "mc/explorer.hpp"
#include "report/chrome_trace.hpp"
#include "report/event_trace.hpp"
#include "report/table.hpp"
#include "report/timeline.hpp"
#include "scenario/scenario.hpp"
#include "sim/event_queue.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "vmm/migration.hpp"
#include "vmm/virtual_machine.hpp"
#include "vmm/profile.hpp"
#include "workloads/einstein/worker.hpp"
#include "workloads/iobench.hpp"
#include "workloads/matrix.hpp"
#include "workloads/netbench.hpp"
#include "workloads/nbench/suite.hpp"
#include "workloads/sevenzip/bench7z.hpp"
#include "workloads/sevenzip/compressor.hpp"

namespace vgrid::cli {
namespace {

using util::Args;

/// --scenario NAME|FILE, default the embedded `paper` (`fleet-small` for
/// the fleet commands). Malformed input throws util::ConfigError with a
/// "<source>:<line>:" diagnostic, which main() reports on stderr with a
/// nonzero exit.
scenario::Scenario scenario_from(const Args& args,
                                 const char* fallback = "paper") {
  return scenario::load(args.get_or("scenario", fallback));
}

/// The scenario's repetition settings, overridden by --reps (default
/// `reps`, else the scenario's own) and --jobs.
core::RunnerConfig runner_config(const Args& args,
                                 const scenario::Scenario& scenario,
                                 std::optional<int> reps = std::nullopt) {
  core::RunnerConfig runner = core::figure_runner_config(scenario);
  runner.repetitions =
      args.get_count<int>("reps", reps.value_or(runner.repetitions));
  // 0 = one worker per hardware thread; results are byte-identical for
  // any jobs value (see core/task_pool.hpp), so defaulting to parallel
  // is safe even for the audit-style commands.
  runner.jobs = args.get_count<int>("jobs", 0);
  return runner;
}

/// The scenario's profiles that --env NAME selects: NAME's alone, or all
/// of them when the flag is absent. An unknown NAME is a usage error.
std::vector<const vmm::VmmProfile*> env_profiles(
    const Args& args, const scenario::Scenario& scenario) {
  std::vector<const vmm::VmmProfile*> selected;
  if (const auto env = args.get("env")) {
    const vmm::VmmProfile* profile = scenario.profile_by_name(*env);
    if (profile == nullptr) {
      throw util::UsageError("unknown environment '" + *env + "'");
    }
    selected.push_back(profile);
  } else {
    for (const auto& profile : scenario.profiles) selected.push_back(&profile);
  }
  return selected;
}

/// Pin the scenario's identity into a snapshot: a constant gauge whose
/// labels carry the name and FNV-1a content hash, so snapshots from
/// different scenarios can never be confused.
void record_scenario_info(obs::Registry& registry,
                          const scenario::Scenario& scenario) {
  registry
      .gauge("scenario.info",
             {{"hash", scenario.hash_hex()}, {"name", scenario.name}},
             obs::Gauge::Agg::kLast)
      .set(1);
}

/// The registry snapshot as FILE (JSON) and FILE.prom (Prometheus).
void write_metrics(const obs::Registry& registry, const std::string& path) {
  obs::write_snapshot(registry, path);
  std::printf("metrics written to %s (JSON) and %s.prom (Prometheus)\n",
              path.c_str(), path.c_str());
}

/// One row per scenario-aware figure function: the figure targets of
/// observe().
struct Figure {
  const char* id;
  core::FigureResult (*fn)(const scenario::Scenario&, core::RunnerConfig);
};

constexpr Figure kFigures[] = {
    {"fig1", core::fig1_7z},            {"fig2", core::fig2_matrix},
    {"fig3", core::fig3_iobench},       {"fig4", core::fig4_netbench},
    {"fig5", core::fig5_mem_index},     {"fig6", core::fig6_int_fp_index},
    {"fig7", core::fig7_cpu_available}, {"fig8", core::fig8_mips_ratio},
};

void print_figure(const core::FigureResult& figure) {
  report::Table table(figure.id + ": " + figure.title);
  table.set_header({"environment", "measured", "paper"});
  for (const auto& row : figure.rows) {
    table.add_row({row.label, util::format_double(row.measured, 3),
                   row.paper ? util::format_double(*row.paper, 3)
                             : std::string("-")});
  }
  std::printf("%s  [%s]\n\n", table.ascii().c_str(), figure.unit.c_str());
}

int cmd_guest(const Args& args) {
  const std::string workload = args.positional()[0];
  const scenario::Scenario scenario = scenario_from(args);
  const core::RunnerConfig runner = runner_config(args, scenario);
  const auto profiles = env_profiles(args, scenario);
  const scenario::Workloads& budgets = scenario.workloads;

  core::GuestPerfExperiment::ProgramFactory factory;
  if (workload == "7z") {
    workloads::Bench7zConfig config;
    config.data_bytes = budgets.sevenzip_bytes;
    factory = [config] {
      return workloads::SevenZipBench(config).make_program();
    };
  } else if (workload == "matrix") {
    const std::size_t n =
        static_cast<std::size_t>(budgets.matrix_sizes.back());
    factory = [n] { return workloads::MatrixBenchmark(n).make_program(); };
  } else if (workload == "iobench") {
    workloads::IoBenchConfig config;
    config.min_file_bytes = budgets.iobench_file_bytes.front();
    config.max_file_bytes = budgets.iobench_file_bytes.back();
    factory = [config] { return workloads::IoBench(config).make_program(); };
  } else if (workload == "netbench") {
    workloads::NetBenchConfig config;
    config.stream_bytes = budgets.net_stream_bytes;
    factory = [config] { return workloads::NetBench(config).make_program(); };
  } else {
    throw util::UsageError("unknown workload '" + workload + "'");
  }

  core::GuestPerfExperiment experiment(factory, scenario, runner);
  report::Table table("Guest slowdown for " + workload +
                      " (1.0 = native)");
  table.set_header({"environment", "slowdown"});
  for (const vmm::VmmProfile* profile : profiles) {
    table.add_row(profile->name, {experiment.slowdown(*profile)});
  }
  std::printf("%s", table.ascii().c_str());
  return 0;
}

int cmd_host(const Args& args) {
  const scenario::Scenario scenario = scenario_from(args);
  // --priority / --os override the scenario; both reuse the scenario
  // grammar, so a typo is a diagnostic instead of a silent default.
  core::HostImpactConfig config = core::host_impact_config(
      scenario, scenario::parse_priority(args.get_or("priority", "idle")),
      runner_config(args, scenario));
  if (const auto os_flag = args.get("os")) {
    config.host_os = scenario::parse_host_os(*os_flag);
  }
  const int threads =
      args.get_count<int>("threads", scenario.sweep.sevenzip_threads.back());
  const int vms = args.get_count<int>("vms", config.vm_count);
  const auto profiles = env_profiles(args, scenario);
  core::HostImpactExperiment experiment(config);

  report::Table table(util::format(
      "Host impact: 7z with %d thread(s), %d pegged VM(s), %s priority, "
      "%s host",
      threads, vms, os::to_string(config.vm_priority),
      to_string(config.host_os)));
  table.set_header({"environment", "%CPU", "MIPS ratio"});
  const auto baseline = experiment.run_7z(threads, nullptr);
  table.add_row("no-vm", {baseline.cpu_percent, 1.0});
  for (const vmm::VmmProfile* profile : profiles) {
    const auto metrics = experiment.run_7z(threads, profile, vms);
    table.add_row(profile->name,
                  {metrics.cpu_percent, metrics.mips / baseline.mips});
  }
  std::printf("%s", table.ascii().c_str());
  return 0;
}

int cmd_suite(const Args& args) {
  workloads::nbench::SuiteConfig config;
  config.iterations = args.get_count("iterations", 2);
  const auto suite = workloads::nbench::run_suite(config);
  report::Table table("NBench suite (native, this machine)");
  table.set_header({"kernel", "index", "iterations/s"});
  for (const auto& kernel : suite.kernels) {
    table.add_row({kernel.name, to_string(kernel.index),
                   util::format_double(
                       kernel.result.iterations_per_second(), 2)});
  }
  table.add_row({"MEM index", "", util::format_double(suite.mem_index, 2)});
  table.add_row({"INT index", "", util::format_double(suite.int_index, 2)});
  table.add_row({"FP index", "", util::format_double(suite.fp_index, 2)});
  std::printf("%s", table.ascii().c_str());
  return 0;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::SystemError("cannot open " + path, errno);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw util::SystemError("cannot open " + path, errno);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw util::SystemError("write failed: " + path, errno);
}

int compress_file(const Args& args, bool decompress) {
  const auto input = read_file(args.positional()[0]);
  std::vector<std::uint8_t> output;
  if (decompress) {
    output = workloads::sevenzip::decompress(input);
  } else {
    workloads::sevenzip::CompressStats stats;
    output = workloads::sevenzip::compress(input, {}, &stats);
    std::printf("%zu -> %zu bytes (ratio %.3f, %llu matches)\n",
                input.size(), output.size(), stats.ratio(),
                static_cast<unsigned long long>(
                    stats.finder.matches_emitted));
  }
  write_file(args.positional()[1], output);
  return 0;
}

int cmd_deploy(const Args& args) {
  grid::DeploymentConfig config;
  config.volunteers = args.get_count<int>("volunteers", 100);
  const std::uint64_t image_mb = args.get_count("image-mb", 1400);
  config.image_bytes = image_mb * 1000 * 1000;
  report::Table table(util::format(
      "Deploying a %llu MB image to %d volunteers",
      static_cast<unsigned long long>(image_mb), config.volunteers));
  table.set_header({"strategy", "makespan (h)", "server GB sent"});
  for (const auto& estimate : grid::compare_strategies(config)) {
    table.add_row({to_string(estimate.strategy),
                   util::format_double(estimate.makespan_seconds / 3600.0,
                                       2),
                   util::format_double(estimate.server_bytes_sent / 1e9,
                                       1)});
  }
  std::printf("%s", table.ascii().c_str());
  return 0;
}

int cmd_churn(const Args& args) {
  core::AvailabilityConfig config;
  config.workunit_cpu_seconds =
      args.get_double("workunit-hours", 4.0) * 3600.0;
  config.mean_session_seconds =
      args.get_double("session-hours", 2.0) * 3600.0;
  config.checkpointing_enabled = !args.has("no-checkpoint");
  const auto result = core::simulate_churn(config);
  std::printf(
      "workunit %.1f CPU-hours, sessions ~%.1f h, checkpointing %s\n"
      "  mean completion: %.2f h (95%% CI +-%.2f h)\n"
      "  CPU overhead factor: %.2f\n"
      "  mean interruptions: %.1f\n",
      config.workunit_cpu_seconds / 3600.0,
      config.mean_session_seconds / 3600.0,
      config.checkpointing_enabled ? "on" : "off",
      result.completion_wall_seconds.mean / 3600.0,
      result.completion_wall_seconds.ci95_half_width / 3600.0,
      result.cpu_overhead_factor, result.mean_interruptions);
  return 0;
}

int cmd_migrate(const Args& args) {
  vmm::MigrationConfig config;
  config.ram_bytes = args.get_count("ram-mb", 300) * 1024 * 1024;
  config.dirty_rate_bps = args.get_double("dirty-mbps", 2.0) * 1e6;
  const auto cold = vmm::estimate_cold_migration(config);
  const auto live = vmm::estimate_live_migration(config);
  std::printf("cold: total %.1f s, downtime %.1f s\n"
              "live: total %.1f s, downtime %.2f s, %d pre-copy rounds%s\n",
              cold.total_seconds, cold.downtime_seconds,
              live.total_seconds, live.downtime_seconds,
              live.precopy_rounds,
              live.converged ? "" : " (did not converge)");
  return 0;
}

int cmd_timeline(const Args& args) {
  // Recreate the Figure 7 sweep on the selected testbed, trace it, and
  // emit both the ASCII strip chart and a Chrome trace JSON.
  const scenario::Scenario scenario = scenario_from(args);
  core::HostOs host_os = scenario.host_os;
  if (const auto os_flag = args.get("os")) {
    host_os = scenario::parse_host_os(*os_flag);
  }
  // --env defaults to the scenario's first profile.
  const vmm::VmmProfile* profile = env_profiles(args, scenario).front();

  core::Testbed testbed(scenario.machine, scenario.scheduler, host_os);
  testbed.tracer().enable(true);
  vmm::VmConfig vm_config;
  vm_config.name = profile->name;
  vm_config.priority = os::PriorityClass::kIdle;
  vmm::VirtualMachine vm(testbed.scheduler(), *profile, vm_config);
  workloads::einstein::EinsteinConfig einstein;
  einstein.samples =
      static_cast<std::size_t>(scenario.workloads.einstein_samples);
  einstein.template_count =
      static_cast<std::size_t>(scenario.workloads.einstein_templates);
  vm.run_guest("einstein",
               std::make_unique<workloads::einstein::EinsteinProgram>(
                   einstein, /*continuous=*/true));
  workloads::Bench7zConfig bench_config;
  bench_config.data_bytes = scenario.workloads.sevenzip_bytes;
  const workloads::SevenZipBench bench{bench_config};
  const int threads =
      args.get_count<int>("threads", scenario.sweep.sevenzip_threads.back());
  os::HostThread* last = nullptr;
  for (int i = 0; i < threads; ++i) {
    last = &testbed.scheduler().spawn("7z-" + std::to_string(i),
                                      os::PriorityClass::kNormal,
                                      bench.make_program());
  }
  (void)testbed.run_until_done(*last);

  const report::TimelineReport timeline(testbed.tracer().records());
  std::printf("%s\n%s", timeline.ascii().c_str(),
              timeline.strip_chart(72).c_str());
  const std::string out = args.get_or("out", "");
  if (!out.empty()) {
    report::write_chrome_trace(out, testbed.tracer().records());
    std::printf("\nChrome trace written to %s\n", out.c_str());
  }
  return 0;
}

// --- bench -------------------------------------------------------------------
// The wall-clock macro-benchmark suite: event-queue throughput, scheduler
// passes, message round-trips, fig5 end-to-end. Emits the canonical
// BENCH_vgrid.json that tools/bench_diff compares across commits — the
// repo's perf trajectory.

int cmd_bench(const Args& args) {
  perf::BenchConfig config;
  config.quick = args.has("quick");
  config.jobs = args.get_count<int>("jobs", 1);
  config.scenario = scenario_from(args);
  const std::string out = args.get_or("out", "BENCH_vgrid.json");

  const perf::Suite suite = perf::default_suite();
  std::printf("vgrid bench: %zu benchmark(s), %d timed rep(s) each%s, "
              "scenario %s (hash %s)\n",
              suite.size(), perf::harness_reps(config),
              config.quick ? " [--quick]" : "",
              config.scenario.name.c_str(),
              config.scenario.hash_hex().c_str());
  const auto results =
      suite.run(config, [](const perf::BenchResult& result) {
        std::printf("  %-28s median %10.3f ms  min %10.3f ms  %12.0f "
                    "ops/s\n",
                    result.name.c_str(),
                    static_cast<double>(result.median_ns) / 1e6,
                    static_cast<double>(result.min_ns) / 1e6,
                    result.ops_per_sec);
        std::fflush(stdout);
      });
  perf::write_bench_json(out, perf::bench_json(results, config));
  std::printf("bench results written to %s\n", out.c_str());
  return 0;
}

// --- observed runs -----------------------------------------------------------
// figures, metrics, profile, timeseries, fleet, watch fleet, trace, tails
// and determinism-audit run their target through one driver, observe(): it
// installs one obs::Context holding exactly the sinks the command renders,
// runs the target, and returns those sinks filled beside the target's own
// output. A sink nobody renders is never installed: the fleet's lifecycle
// journal alone is most of a 100k-host run's memory.

/// A count flag's value, or nothing when it is absent.
template <typename T = std::uint64_t>
std::optional<T> count_flag(const Args& args, const std::string& flag) {
  if (!args.has(flag)) return std::nullopt;
  return args.get_count<T>(flag, 0);
}

/// What observe() runs: one or more figures, the fleet (src/fleet: N host
/// configurations sampled from the scenario's [fleet] distributions, one
/// workunit each), or the scripted grid protocol run (run_grid_script).
struct Target {
  enum Kind { kFigure, kFleet, kGrid };
  Kind kind = kFigure;
  std::string id;  ///< as named: the first figure id, "fleet" or "grid"
  std::vector<const Figure*> figures;  ///< kFigure: in fig1..fig8 order
};

/// The target the positionals name, else `fallback` ("" = all eight
/// figures). An unknown id, or one of a kind outside `accepts`, is a usage
/// error.
Target target_from(const Args& args, std::string_view fallback,
                   std::initializer_list<Target::Kind> accepts) {
  std::vector<std::string> ids = args.positional();
  if (ids.empty() && !fallback.empty()) ids.emplace_back(fallback);
  Target target;
  for (const std::string& id : ids) {
    target.kind = id == "fleet"  ? Target::kFleet
                  : id == "grid" ? Target::kGrid
                                 : Target::kFigure;
    const auto named = [&id](const Figure& figure) { return id == figure.id; };
    if (std::count(accepts.begin(), accepts.end(), target.kind) == 0 ||
        (target.kind == Target::kFigure &&
         std::none_of(std::begin(kFigures), std::end(kFigures), named))) {
      throw util::UsageError("no such target '" + id + "'");
    }
  }
  target.id = ids.empty() ? "" : ids.front();
  for (const Figure& figure : kFigures) {
    if (target.kind == Target::kFigure &&
        (ids.empty() || std::count(ids.begin(), ids.end(), figure.id) != 0)) {
      target.figures.push_back(&figure);
    }
  }
  return target;
}

/// Drive grid::ServerLogic directly — no sockets, logical nanosecond
/// clock — so ServerLogic's own EVT_* sites journal complete workunit
/// lifecycles, including `deaths` deadline expiries with their reissues.
/// This driver never writes journal events itself.
void run_grid_script(std::uint64_t workunits, int clients, int replication,
                     int deaths) {
  grid::ServerLogic logic;
  for (std::uint64_t i = 0; i < workunits; ++i) {
    grid::Workunit workunit;
    workunit.kind = "einstein";
    workunit.payload = "wu-" + std::to_string(i + 1);
    workunit.replication = replication;
    workunit.quorum = replication;
    workunit.deadline_seconds = 3600.0;
    logic.add_workunit(std::move(workunit));
  }
  // Logical clock: every protocol step advances one scripted tick.
  std::int64_t now_ns = 0;
  const auto tick = [&now_ns] { return now_ns += 250'000'000; };
  // Fetch phase: clients round-robin until the queue is dry. Holders of
  // each workunit are remembered in fetch order (= ServerLogic's
  // outstanding order, so an expiry hits the recorded client).
  std::map<grid::WorkunitId, std::vector<std::string>> holders;
  int dry_streak = 0;
  int turn = 0;
  while (dry_streak < clients) {
    const std::string client = "c" + std::to_string(turn % clients);
    ++turn;
    const grid::WorkResponse work =
        logic.next_work(grid::WorkRequest{client}, tick());
    if (!work.has_work) {
      ++dry_streak;
      continue;
    }
    dry_streak = 0;
    holders[work.workunit.id].push_back(client);
  }
  // Death phase: expire the oldest outstanding instance of the first
  // `deaths` workunits (round-robin when deaths > workunits).
  for (int death = 0; death < deaths && !holders.empty(); ++death) {
    const grid::WorkunitId id =
        (static_cast<grid::WorkunitId>(death) % workunits) + 1;
    const auto held = holders.find(id);
    if (held == holders.end() || held->second.empty()) continue;
    if (logic.expire_instance(id)) {
      held->second.erase(held->second.begin());
    }
  }
  // Recovery phase: fresh volunteers pick up the reissues.
  for (int death = 0; death < deaths; ++death) {
    const std::string client = "lazarus" + std::to_string(death);
    const grid::WorkResponse work =
        logic.next_work(grid::WorkRequest{client}, tick());
    if (work.has_work) holders[work.workunit.id].push_back(client);
  }
  // Submit phase: every surviving holder returns the matching result, so
  // each workunit reaches quorum, validates, and credits — closing its
  // trace.
  for (const auto& [id, held] : holders) {
    for (const std::string& client : held) {
      grid::Result result;
      result.workunit_id = id;
      result.client_id = client;
      // snprintf-backed, not operator+: GCC 12 PR105651 -Wrestrict FP.
      result.output = util::format("r%llu", static_cast<unsigned long long>(id));
      result.cpu_seconds = 1.0 + 0.25 * static_cast<double>(id % 4);
      tick();
      (void)logic.accept_result(grid::SubmitRequest{result});
    }
  }
}

/// The sinks observe() can install, as bits of its `sinks` argument.
constexpr unsigned kRegistry = 1, kJournal = 2, kTimeseries = 4, kTrace = 8,
                   kProfiler = 16;

struct Observation;

/// The run settings that differ between commands.
struct Settings {
  std::optional<int> reps;  ///< the --reps default; else the scenario's
  std::optional<int> jobs;  ///< replaces --jobs (the audit's two runs)
  std::optional<std::uint64_t> seed;        ///< a figure run's --seed
  std::optional<std::int64_t> interval_ms;  ///< sampler --interval
  std::optional<std::size_t> points;        ///< sampler --points
  std::function<void(const fleet::FleetProgress&)> on_progress;
  /// Called as each figure finishes; its rows are run.figures.back().
  std::function<void(const Observation& run)> on_figure;
};

/// A finished run: the sinks observe() installed, filled, and the target's
/// own output.
struct Observation {
  Target target;
  scenario::Scenario scenario;  ///< unused by the grid target
  core::RunnerConfig runner;    ///< figure target
  fleet::FleetConfig fleet;     ///< fleet target
  /// The filled registry, event_log and timeseries; null when not
  /// installed. For the fleet this is run_fleet's own result, which also
  /// carries the hosts and raw outcomes selfcheck reads.
  fleet::FleetResult result;
  std::unique_ptr<obs::Profiler> profiler;
  std::optional<std::string> trace;
  std::vector<core::FigureResult> figures;

  std::string summary() const {
    return fleet::format_summary(scenario, result, fleet.inject_bug);
  }

  /// Every deterministic section, in the audit's fixed order: scenario
  /// header, trace, figure rows (hexfloats, so a one-ulp divergence is a
  /// diff), fleet summary, metrics, journal, tails, time series. The
  /// profiler never joins: wall times are not deterministic.
  std::vector<std::pair<const char*, std::string>> sections() const {
    std::vector<std::pair<const char*, std::string>> out;
    if (target.kind == Target::kFigure) {
      out.emplace_back("scenario", "=== scenario " + scenario.name + " " +
                                       scenario.hash_hex() + " ===\n");
    }
    if (trace) {
      out.emplace_back("trace", *trace);
      std::string rows;
      for (const core::FigureResult& figure : figures) {
        rows += "=== figure " + figure.id + ": " + figure.title + " [" +
                figure.unit + "] ===\n";
        for (const auto& row : figure.rows) {
          rows += util::format("%s measured=%a paper=%a\n", row.label.c_str(),
                               row.measured, row.paper.value_or(-1.0));
        }
      }
      out.emplace_back("figure", rows);
    }
    if (target.kind == Target::kFleet) out.emplace_back("summary", summary());
    if (result.registry) {
      out.emplace_back("metrics",
                       "=== metrics ===\n" + result.registry->snapshot_json());
    }
    if (result.event_log) {
      out.emplace_back("eventlog", "=== eventlog ===\n" +
                                       result.event_log->render_journal());
      if (target.kind == Target::kFleet) {
        out.emplace_back("tails", "=== tails ===\n" +
                                      report::format_tails(*result.event_log));
      }
    }
    if (result.timeseries) {
      out.emplace_back("timeseries", "=== timeseries ===\n" +
                                         result.timeseries->render_json());
    }
    return out;
  }
};

/// Run `target` with exactly the `sinks` installed. The fleet always has
/// a registry: run_fleet builds it.
Observation observe(const Args& args, Target target, unsigned sinks,
                    Settings settings = {}) {
  Observation run;
  run.target = std::move(target);
  const bool is_fleet = run.target.kind == Target::kFleet;
  if (run.target.kind != Target::kGrid) {
    run.scenario = scenario_from(args, is_fleet ? "fleet-small" : "paper");
  }
  obs::Timeseries::Config sampler;
  if (run.scenario.obs) {
    sampler.interval_ms = run.scenario.obs->sample_interval_ms;
  }
  sampler.interval_ms = settings.interval_ms.value_or(sampler.interval_ms);
  sampler.ring_capacity = settings.points.value_or(sampler.ring_capacity);
  obs::Context context;
  if (sinks & kProfiler) {
    run.profiler = std::make_unique<obs::Profiler>();
    context.profiler = run.profiler.get();
  }

  if (is_fleet) {
    // run_fleet builds and installs its own registry, journal and sampler.
    run.fleet.hosts = args.get_count("hosts", 0);
    run.fleet.jobs = settings.jobs.value_or(args.get_count<int>("jobs", 1));
    run.fleet.seed = count_flag(args, "seed");
    if (const auto bug = args.get("inject-bug")) {
      run.fleet.inject_bug = fleet::parse_fleet_bug(*bug);
    }
    run.fleet.eventlog = (sinks & kJournal) != 0;
    if (run.fleet.eventlog) {
      // --ring N: flight-recorder capacity of the journal (0 keeps all).
      run.fleet.eventlog_ring =
          args.get_count<std::size_t>("ring", fleet::kDefaultEventlogRing);
    }
    if (sinks & kTimeseries) run.fleet.timeseries = sampler;
    run.fleet.on_progress = std::move(settings.on_progress);
    const obs::ScopedContext scope(context);
    run.result = fleet::run_fleet(run.scenario, run.fleet);
    record_scenario_info(*run.result.registry, run.scenario);
    return run;
  }

  if (sinks & kRegistry) {
    // Pre-seeded with the full taxonomy, so every instrumented subsystem
    // appears even when a figure skips some layers.
    run.result.registry = std::make_unique<obs::Registry>();
    obs::register_defaults(*run.result.registry);
    record_scenario_info(*run.result.registry, run.scenario);
    context.registry = run.result.registry.get();
  }
  if (sinks & kJournal) {
    run.result.event_log = std::make_unique<obs::EventLog>();
    context.event_log = run.result.event_log.get();
  }
  if (sinks & kTimeseries) {
    // Every Testbed a figure builds arms the sim-time sampler tick on the
    // registry; TaskPool merges per-task sub-series in task order.
    run.result.timeseries = std::make_unique<obs::Timeseries>(sampler);
    context.timeseries = run.result.timeseries.get();
  }
  if (sinks & kTrace) context.trace_capture = &run.trace.emplace();
  const obs::ScopedContext scope(context);
  if (run.target.kind == Target::kGrid) {
    run_grid_script(args.get_count("workunits", 6),
                    args.get_count<int>("clients", 4),
                    args.get_count<int>("replication", 2),
                    args.get_count<int>("deaths", 2));
    return run;
  }
  run.runner = runner_config(args, run.scenario, settings.reps);
  run.runner.jobs = settings.jobs.value_or(run.runner.jobs);
  run.runner.seed = settings.seed.value_or(run.runner.seed);
  for (const Figure* figure : run.target.figures) {
    run.figures.push_back(figure->fn(run.scenario, run.runner));
    if (settings.on_figure) settings.on_figure(run);
  }
  return run;
}

// --- figures / metrics / profile ---------------------------------------------

int cmd_figures(const Args& args) {
  // --metrics-out FILE: the registry snapshot across every selected
  // figure, as canonical JSON (plus FILE.prom) next to the tables.
  const std::string metrics_out = args.get_or("metrics-out", "");
  // Each table is printed as its figure finishes, the header with the
  // first one.
  Settings settings;
  settings.on_figure = [](const Observation& run) {
    if (run.figures.size() == 1) {
      std::printf("scenario: %s (hash %s)\n\n", run.scenario.name.c_str(),
                  run.scenario.hash_hex().c_str());
    }
    print_figure(run.figures.back());
  };
  const Observation run =
      observe(args, target_from(args, "", {Target::kFigure}),
              metrics_out.empty() ? 0 : kRegistry, settings);
  if (!metrics_out.empty()) write_metrics(*run.result.registry, metrics_out);
  return 0;
}

/// Figures run purely for their metrics: the snapshot is the output
/// (stdout or --out FILE). A handful of repetitions exercises every layer
/// without the paper's full methodology.
int cmd_metrics(const Args& args) {
  const std::string format = args.get_or("format", "json");
  if (format != "json" && format != "prom") {
    throw util::UsageError("unknown --format '" + format +
                           "'; use json or prom");
  }
  Settings settings;
  settings.reps = 3;
  settings.seed = count_flag(args, "seed");
  const Observation run = observe(
      args, target_from(args, "fig5", {Target::kFigure}), kRegistry, settings);
  const obs::Registry& registry = *run.result.registry;
  const std::string out_path = args.get_or("out", "");
  if (!out_path.empty()) {
    write_metrics(registry, out_path);
    return 0;
  }
  const std::string body = format == "prom" ? registry.snapshot_prometheus()
                                            : registry.snapshot_json();
  std::fputs(body.c_str(), stdout);
  return 0;
}

/// One figure with the wall-clock profiler installed: where the
/// reproduction's own time went — the paper's methodology applied to the
/// measurement system itself. The table aggregates by scope name; the JSON
/// tree (--out) and folded stacks (--folded) keep the full nesting.
int cmd_profile(const Args& args) {
  Settings settings;
  settings.reps = 3;
  const Observation run = observe(
      args, target_from(args, "fig5", {Target::kFigure}), kProfiler, settings);
  const obs::Profiler& profiler = *run.profiler;
  if (profiler.empty()) {
    std::fprintf(stderr,
                 "vgrid profile: no scopes recorded — this binary was "
                 "built with -DVGRID_PROFILE=OFF\n");
    return 1;
  }

  const auto top_n = args.get_count<std::size_t>("top", 10);
  const std::int64_t total = profiler.total_ns();
  report::Table table(util::format(
      "%s on '%s': top %zu scopes by self time (total %.1f ms wall)",
      run.target.id.c_str(), run.scenario.name.c_str(), top_n,
      static_cast<double>(total) / 1e6));
  table.set_header({"scope", "count", "self ms", "incl ms", "self %"});
  for (const auto& row : report::top_exclusive(profiler, top_n)) {
    table.add_row(
        {row.name, util::format("%llu",
                                static_cast<unsigned long long>(row.count)),
         util::format_double(static_cast<double>(row.exclusive_ns) / 1e6, 3),
         util::format_double(static_cast<double>(row.inclusive_ns) / 1e6, 3),
         util::format_double(
             total > 0 ? 100.0 * static_cast<double>(row.exclusive_ns) /
                             static_cast<double>(total)
                       : 0.0,
             1)});
  }
  std::printf("%s", table.ascii().c_str());

  const std::string out = args.get_or("out", "");
  if (!out.empty()) {
    report::write_profile_json(out, profiler);
    std::printf("profile JSON written to %s\n", out.c_str());
  }
  const std::string folded = args.get_or("folded", "");
  if (!folded.empty()) {
    report::write_profile_folded(folded, profiler);
    std::printf("folded stacks written to %s "
                "(flamegraph.pl %s > flame.svg)\n",
                folded.c_str(), folded.c_str());
  }
  return 0;
}

// --- fleet -------------------------------------------------------------------
// The canonical percentile summary of a population run, byte-identical
// for any --jobs value; --selfcheck cross-checks the merged aggregates
// against the raw per-host ground truth (the hook the fleet.finds.*
// mutation tests drive via --inject-bug).

int cmd_fleet(const Args& args) {
  // --timeseries arms the sampler for --selfcheck alone, which verifies
  // the scrape-per-shard invariant (timeseries.finds.dropped_merge).
  const Observation run =
      observe(args, target_from(args, "fleet", {Target::kFleet}),
              args.has("timeseries") ? kTimeseries : 0u);
  const std::string summary = run.summary();
  const std::string out = args.get_or("out", "");
  if (out.empty()) {
    std::fputs(summary.c_str(), stdout);
  } else {
    std::ofstream file(out, std::ios::trunc);
    file << summary;
    if (!file) {
      std::fprintf(stderr, "vgrid fleet: cannot write %s\n", out.c_str());
      return 2;
    }
    std::printf("fleet summary written to %s\n", out.c_str());
  }
  const std::string metrics_out = args.get_or("metrics-out", "");
  if (!metrics_out.empty()) write_metrics(*run.result.registry, metrics_out);

  if (args.has("selfcheck")) {
    const std::vector<std::string> violations =
        fleet::selfcheck(run.result, run.fleet.inject_bug);
    for (const std::string& violation : violations) {
      std::fprintf(stderr, "fleet selfcheck FAIL: %s\n", violation.c_str());
    }
    if (!violations.empty()) return 1;
    std::printf("fleet selfcheck PASS: aggregates match %llu raw host "
                "outcomes\n",
                static_cast<unsigned long long>(run.result.hosts));
  }
  return 0;
}

// --- timeseries / watch ------------------------------------------------------
// Front ends of obs::Timeseries, the time-resolved leg of the
// observability quartet. `vgrid timeseries` runs a figure or the fleet
// with the deterministic sampler installed and exports the canonical
// sorted JSON (plus CSV / gnuplot tracks via --out); `vgrid watch`
// renders a live in-terminal progress view on stderr — stdout stays
// reserved for the canonical artifacts, and --no-progress silences the
// view entirely.

int cmd_timeseries(const Args& args) {
  Settings settings;
  settings.interval_ms = count_flag<std::int64_t>(args, "interval");
  settings.points = count_flag<std::size_t>(args, "points");
  // The registry is what the sampler scrapes.
  const Observation run = observe(
      args, target_from(args, "fig5", {Target::kFigure, Target::kFleet}),
      kRegistry | kTimeseries, settings);
  const obs::Timeseries& series = *run.result.timeseries;
  std::fprintf(stderr,
               "%s timeseries: %llu scrapes, %zu series, %llu points "
               "(interval %lld sim-ms)\n",
               run.target.id.c_str(),
               static_cast<unsigned long long>(series.samples_taken()),
               series.series_count(),
               static_cast<unsigned long long>(series.points_recorded()),
               static_cast<long long>(series.config().interval_ms));
  const std::string out = args.get_or("out", "");
  if (out.empty()) {
    std::fputs(series.render_json().c_str(), stdout);
    return 0;
  }
  report::write_timeseries(out, series);
  std::printf("timeseries written to %s (JSON), %s.csv, %s.dat + %s.gp "
              "(gnuplot)\n",
              out.c_str(), out.c_str(), out.c_str(), out.c_str());
  return 0;
}

int cmd_watch_fleet(const Args& args) {
  if (args.has("no-progress")) report::set_progress_enabled(false);
  report::ProgressWriter writer;
  const std::int64_t start_ns = util::monotonic_time_ns();
  // The progress view is pure observation: it renders on stderr from the
  // approximate completion-order counters and never touches the
  // deterministic outputs (the summary below is still byte-identical with
  // or without it — determinism.audit covers the same code path).
  Settings settings;
  settings.on_progress = [&](const fleet::FleetProgress& progress) {
    const double seconds =
        static_cast<double>(util::monotonic_time_ns() - start_ns) / 1e9;
    const double rate =
        seconds > 0.0 ? static_cast<double>(progress.hosts_done) / seconds
                      : 0.0;
    writer.update(util::format(
        "fleet: %llu/%llu hosts (%.1f%%) | %.0f hosts/s | shard "
        "%llu/%zu | turnaround p50 %lld ms p99 %lld ms",
        static_cast<unsigned long long>(progress.hosts_done),
        static_cast<unsigned long long>(progress.hosts_total),
        100.0 * static_cast<double>(progress.hosts_done) /
            static_cast<double>(
                progress.hosts_total > 0 ? progress.hosts_total : 1),
        rate, static_cast<unsigned long long>(progress.shards_done),
        progress.shards_total,
        static_cast<long long>(progress.turnaround_p50_ms),
        static_cast<long long>(progress.turnaround_p99_ms)));
  };
  const Observation run = observe(
      args, target_from(args, "fleet", {Target::kFleet}), 0, settings);
  writer.done();
  std::fputs(run.summary().c_str(), stdout);
  return 0;
}

/// Live grid run: a real ProjectServer, C client threads chewing through
/// W workunits, and the watcher polling the SCRAPE endpoint for the
/// rolling RPC percentiles while they work.
int cmd_watch_grid(const Args& args) {
  if (args.has("no-progress")) report::set_progress_enabled(false);
  const std::uint64_t workunits = args.get_count("workunits", 32);
  const int clients = args.get_count<int>("clients", 4);
  grid::ProjectServer server;
  for (std::uint64_t i = 0; i < workunits; ++i) {
    grid::Workunit workunit;
    workunit.kind = "einstein";
    workunit.payload = "wu-" + std::to_string(i + 1);
    workunit.replication = 2;
    workunit.quorum = 2;
    server.add_workunit(std::move(workunit));
  }
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&server, c] {
      grid::GridClient client(server.port(), "c" + std::to_string(c));
      client.register_app("einstein", [](const std::string& payload) {
        return "result-" + payload;
      });
      client.run(/*max_workunits=*/1'000'000);
    });
  }

  report::ProgressWriter writer;
  grid::GridClient watcher(server.port(), "watcher");
  std::atomic<bool> draining{true};
  std::thread join_thread([&] {
    for (std::thread& thread : threads) thread.join();
    draining.store(false, std::memory_order_release);
  });
  while (draining.load(std::memory_order_acquire)) {
    const grid::ScrapeResponse scrape = watcher.scrape();
    const grid::ServerStats stats = server.stats();
    writer.update(util::format(
        "grid: %llu/%llu workunits validated | %llu results | rpc "
        "window(%llds): %llu rpcs p50 %.1f us p99 %.1f us",
        static_cast<unsigned long long>(stats.workunits_validated),
        static_cast<unsigned long long>(workunits),
        static_cast<unsigned long long>(stats.results_received),
        static_cast<long long>(scrape.window_ms / 1000),
        static_cast<unsigned long long>(scrape.rpc_count),
        static_cast<double>(scrape.rpc_p50_ns) / 1e3,
        static_cast<double>(scrape.rpc_p99_ns) / 1e3));
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  join_thread.join();
  writer.done();
  server.stop();

  const grid::ServerStats stats = server.stats();
  std::printf("watch grid: %llu workunits validated, %llu results, "
              "%llu work requests, %d clients\n",
              static_cast<unsigned long long>(stats.workunits_validated),
              static_cast<unsigned long long>(stats.results_received),
              static_cast<unsigned long long>(stats.work_requests),
              clients);
  return 0;
}

// --- trace / tails -----------------------------------------------------------
// Front end of the obs::EventLog lifecycle journal. `vgrid trace` renders
// per-workunit timelines (and a Chrome trace with causal flow arrows);
// `vgrid tails` decomposes turnaround percentiles into queue-wait /
// compute / validation / retry and prints the wasted-work ledger. Both
// take a target: `fleet` (the population run journals every host) or
// `grid` (the scripted protocol run on a logical clock).

/// Explain an empty journal: distinguish the kill-switch build from a
/// genuinely event-free run.
bool journal_usable(const obs::EventLog& log) {
  if (obs::kEventLogCompiledIn) return true;
  std::fprintf(stderr,
               "vgrid: lifecycle journal is empty — this binary was built "
               "with -DVGRID_EVENTLOG=OFF\n");
  return log.traces_closed() != 0;
}

int cmd_trace(const Args& args) {
  const auto max_traces = args.get_count<std::size_t>("max", 10);
  const bool anomalous_only = args.has("anomalous");
  const std::string out = args.get_or("out", "");
  const Observation run = observe(
      args, target_from(args, "fleet", {Target::kFleet, Target::kGrid}),
      kJournal);
  const obs::EventLog& log = *run.result.event_log;
  if (!journal_usable(log)) return 1;
  std::fputs(report::render_timelines(log, max_traces, anomalous_only).c_str(),
             stdout);
  if (!out.empty()) {
    report::write_event_trace(out, log, {}, {});
    std::printf("Chrome lifecycle trace written to %s (flow arrows link "
                "causal events)\n",
                out.c_str());
  }
  return 0;
}

int cmd_tails(const Args& args) {
  const Target target =
      target_from(args, "fleet", {Target::kFleet, Target::kGrid});
  // As for `fleet`, --timeseries is read by --selfcheck alone.
  const bool sampler =
      target.kind == Target::kFleet && args.has("timeseries");
  const Observation run =
      observe(args, target, kJournal | (sampler ? kTimeseries : 0u));
  const obs::EventLog& log = *run.result.event_log;
  if (!journal_usable(log)) return 1;
  std::fputs(report::format_tails(log).c_str(), stdout);

  if (args.has("selfcheck")) {
    // Reconcile the journal's aggregates against the independently
    // accumulated turnaround histogram: fleet.workunit.turnaround_ms for
    // the fleet target, the journal's own closed-trace count identity
    // for grid. This is what catches a silently dropped sub-journal
    // merge (ctest eventlog.finds.dropped_merge).
    std::vector<std::string> violations;
    if (run.target.kind == Target::kFleet) {
      const obs::Histogram& reference = run.result.registry->histogram(
          "fleet.workunit.turnaround_ms", fleet::duration_ms_buckets());
      violations = report::reconcile_tails(log, reference);
      const std::vector<std::string> fleet_violations =
          fleet::selfcheck(run.result, run.fleet.inject_bug);
      violations.insert(violations.end(), fleet_violations.begin(),
                        fleet_violations.end());
    } else {
      const obs::Histogram* local =
          log.stats().find_histogram("trace.turnaround");
      if (local == nullptr || local->count() != log.traces_closed()) {
        violations.push_back("journal turnaround count != closed traces");
      }
    }
    for (const std::string& violation : violations) {
      std::fprintf(stderr, "tails selfcheck FAIL: %s\n", violation.c_str());
    }
    if (!violations.empty()) return 1;
    std::printf("tails selfcheck PASS: decomposition reconciles with the "
                "turnaround aggregates (%llu lifecycles)\n",
                static_cast<unsigned long long>(log.traces_closed()));
  }
  return 0;
}

// --- determinism-audit -------------------------------------------------------
// ARCHITECTURE.md §5 promises "runs are exactly reproducible given a seed";
// this subcommand enforces it end to end: observe() the target twice, at
// jobs 1 and at --jobs N, with the same sinks installed, concatenate every
// deterministic section of each run (Observation::sections) and byte-diff
// the two streams. The PASS line names each section with its size.

int cmd_determinism_audit(const Args& args) {
  const Target target =
      target_from(args, "fig5", {Target::kFigure, Target::kFleet});
  const bool figure = target.kind == Target::kFigure;
  // The metric snapshot always joins the stream: a counter that depends
  // on worker interleaving is as much a determinism bug as a diverging
  // trace. --metrics-only drops the trace capture and with it the figure
  // rows, for a cheap focused gate. --profile installs the wall-clock
  // profiler for both runs: it never joins the stream, but having it on
  // must not perturb a byte of it.
  const unsigned sinks = kRegistry | (args.has("eventlog") ? kJournal : 0u) |
                         (args.has("timeseries") ? kTimeseries : 0u) |
                         (figure && !args.has("metrics-only") ? kTrace : 0u) |
                         (figure && args.has("profile") ? kProfiler : 0u);
  Settings settings;
  settings.reps = 5;
  settings.seed = count_flag(args, "seed");
  const int jobs = args.get_count<int>("jobs", 1);
  // Each run's sinks are freed before the next one starts.
  std::string first;
  for (int pass = 0; pass < 2; ++pass) {
    settings.jobs = pass == 0 ? 1 : jobs;
    const Observation run = observe(args, target, sinks, settings);
    std::string stream;
    std::string sections;
    for (const auto& [name, text] : run.sections()) {
      stream += text;
      sections += util::format("%s%s %zu B", sections.empty() ? "" : ", ",
                               name, text.size());
    }
    if (pass == 0) {
      first = std::move(stream);
      continue;
    }
    if (first != stream) {
      // Report the first differing byte and its line.
      const auto at = std::mismatch(first.begin(), first.end(),
                                    stream.begin(), stream.end())
                          .first;
      std::fprintf(stderr,
                   "determinism-audit FAIL: %s diverges at byte %td (line "
                   "%td; sizes %zu vs %zu; serial vs %d jobs)\n",
                   target.id.c_str(), at - first.begin(),
                   std::count(first.begin(), at, '\n') + 1, first.size(),
                   stream.size(), jobs);
      return 1;
    }
    // The figure form names the runs' seed and repetitions.
    const std::string seed =
        figure ? util::format(" across two seed=%llu runs",
                              static_cast<unsigned long long>(run.runner.seed))
               : "";
    const std::string reps =
        figure ? util::format("%d repetitions, ", run.runner.repetitions) : "";
    std::printf(
        "determinism-audit PASS: %s [scenario %s %s] %sbyte-identical%s "
        "(%s; %zu bytes, %sserial vs %d jobs%s)\n",
        target.id.c_str(), run.scenario.name.c_str(),
        run.scenario.hash_hex().c_str(),
        figure && !run.trace ? "metric snapshots " : "", seed.c_str(),
        sections.c_str(), stream.size(), reps.c_str(), jobs,
        run.profiler ? ", profiling on" : "");
  }
  return 0;
}

// --- audit-selftest ----------------------------------------------------------
// Hidden hook for ctest's WILL_FAIL entries: deliberately violate an
// audited precondition and prove the audit actually fires in the shipped
// build (exit 1 via the AuditError -> main() catch path). A gtest
// EXPECT_THROW covers the same contract in-process (test_sim.cpp); this
// end-to-end probe guards against the audit being compiled out or the
// error being swallowed before it reaches the exit status.

int cmd_audit_selftest(const Args& args) {
  const std::string& probe = args.positional()[0];
  sim::EventQueue queue;
  // Precondition !empty(): each call must throw AuditError.
  if (probe == "empty-pop") {
    (void)queue.pop();
  } else if (probe == "empty-next-time") {
    (void)queue.next_time();
  } else {
    throw util::UsageError("unknown probe '" + probe + "'");
  }
  std::fprintf(stderr,
               "audit-selftest: empty-queue %s returned normally — the "
               "precondition audit is not firing\n",
               probe == "empty-pop" ? "pop()" : "next_time()");
  return 0;  // WILL_FAIL inverts: returning success fails the test
}

// --- mc ----------------------------------------------------------------------
// Front end of the src/mc model checker: exhaustively explore the grid
// protocol's interleavings (client death x reissue x validation x credit)
// and audit every reached state against the credit-protocol invariants.
// The summary is byte-stable across runs; a violation exits 1 and the
// schedule that reached it can be written out (--trace-out) and replayed
// step by step (--replay).

int cmd_mc(const Args& args) {
  if (const auto replay_path = args.get("replay")) {
    const auto bytes = read_file(*replay_path);
    std::string parse_error;
    const auto schedule = mc::parse_schedule(
        std::string(bytes.begin(), bytes.end()), &parse_error);
    if (!schedule) {
      std::fprintf(stderr, "vgrid mc: %s: %s\n", replay_path->c_str(),
                   parse_error.c_str());
      return 2;
    }
    const mc::ReplayResult replayed = mc::replay_schedule(*schedule);
    std::printf("vgrid mc replay: %s\n", replayed.message.c_str());
    return replayed.ok ? 0 : 1;
  }

  mc::ExploreConfig config;
  config.model.clients = args.get_count<int>("clients", 3);
  config.model.workunits = args.get_count<int>("workunits", 3);
  config.model.replication = args.get_count<int>("replication", 2);
  config.model.quorum = args.get_count<int>("quorum", 2);
  config.model.max_deaths = args.get_count<int>("deaths", 1);
  if (const auto fault_name = args.get("inject-fault")) {
    const auto fault = grid::parse_injected_fault(*fault_name);
    if (!fault) {
      throw util::UsageError("unknown --inject-fault '" + *fault_name +
                             "' (none|double_credit|lost_workunit)");
    }
    config.model.fault = *fault;
  }
  config.max_depth = args.get_count<int>("max-depth", 96);
  config.max_states = args.get_count("max-states", 2'000'000);
  config.use_sleep_sets = !args.has("no-dpor");
  config.use_state_cache = !args.has("no-state-cache");
  if (config.model.clients < 1 || config.model.workunits < 1) {
    throw util::UsageError("need --clients >= 1, --workunits >= 1");
  }

  mc::Explorer explorer(config);
  const mc::ExploreResult result = explorer.run();
  std::printf("%s", mc::format_summary(config, result).c_str());

  if (result.violation) {
    const std::string trace = mc::render_schedule(
        config.model, result.violating_schedule, &*result.violation);
    const std::string out = args.get_or("trace-out", "");
    if (out.empty()) {
      std::printf("%s", trace.c_str());
    } else {
      std::ofstream file(out, std::ios::trunc);
      file << trace;
      if (!file) {
        std::fprintf(stderr, "vgrid mc: cannot write %s\n", out.c_str());
        return 2;
      }
      std::printf("violating schedule written to %s\n", out.c_str());
    }
    return 1;
  }
  const std::uint64_t min_interleavings =
      args.get_count("min-interleavings", 0);
  if (result.interleavings < min_interleavings) {
    std::fprintf(stderr,
                 "vgrid mc: explored %llu interleavings, required >= %llu\n",
                 static_cast<unsigned long long>(result.interleavings),
                 static_cast<unsigned long long>(min_interleavings));
    return 1;
  }
  return 0;
}

int cmd_profiles(const Args& args) {
  const scenario::Scenario scenario = scenario_from(args);
  report::Table table(
      scenario.name == "paper"
          ? std::string("Hypervisor profiles (calibrated against the paper)")
          : "Hypervisor profiles (scenario '" + scenario.name + "')");
  table.set_header({"name", "int", "fp", "mem", "kernel", "disk x",
                    "service (cores)"});
  for (const auto& profile : scenario.profiles) {
    table.add_row({profile.name,
                   util::format_double(profile.exec.user_int, 2),
                   util::format_double(profile.exec.user_fp, 2),
                   util::format_double(profile.exec.memory, 2),
                   util::format_double(profile.exec.kernel, 1),
                   util::format_double(profile.disk.path_multiplier, 2),
                   util::format_double(
                       profile.host.service_demand_cores, 2)});
  }
  std::printf("%s", table.ascii().c_str());
  return 0;
}

// --- scenarios ---------------------------------------------------------------
// `vgrid scenarios` lists the built-in testbeds; `--show NAME|FILE` prints
// one in canonical form (the exact byte stream the content hash covers),
// so a user-written file can be diffed against what the parser understood.

int cmd_scenarios(const Args& args) {
  if (const auto show = args.get("show")) {
    const scenario::Scenario scenario = scenario::load(*show);
    std::printf("# content hash %s\n%s", scenario.hash_hex().c_str(),
                scenario.canonical_text().c_str());
    return 0;
  }
  report::Table table(
      "Built-in scenarios (--scenario NAME, or a file path)");
  table.set_header({"name", "hash", "machine", "host os", "profiles"});
  for (const std::string& name : scenario::builtin_names()) {
    const scenario::Scenario scenario = scenario::load(name);
    std::string profiles;
    for (const auto& profile : scenario.profiles) {
      if (!profiles.empty()) profiles += " ";
      profiles += profile.name;
    }
    table.add_row(
        {scenario.name, scenario.hash_hex(),
         util::format("%d cores @ %.2f GHz, %s",
                      scenario.machine.chip.cores,
                      scenario.machine.chip.frequency_hz / 1e9,
                      util::human_bytes(scenario.machine.ram_bytes).c_str()),
         os::to_string(scenario.host_os), profiles});
  }
  std::printf("%s", table.ascii().c_str());
  return 0;
}

// --- the command table -------------------------------------------------------
// One row per command form: name, synopsis, help and handler. The synopsis
// declares the flags util::Args parses against and the positionals
// dispatch() accepts. A command's default form comes first; each other
// form's synopsis starts with its selector.

// Flag groups several commands share, each declared once.
constexpr std::string_view kFigureFlags =
    "[--scenario S] [--reps N] [--jobs N]";
constexpr std::string_view kFleetFlags =
    "[--scenario S] [--hosts N] [--jobs N] [--seed S] [--inject-bug BUG]";
constexpr std::string_view kGridScriptFlags =
    "[--workunits W] [--clients C] [--replication R] [--deaths K]";
constexpr std::string_view kSamplerFlags =
    "[--interval MS] [--points N] [--out FILE]";
constexpr std::string_view kTraceFlags = "[--max N] [--anomalous] [--out FILE]";

struct Command {
  std::string_view name;
  std::array<std::string_view, 4> synopsis;  ///< joined with spaces
  std::string_view help;
  int (*run)(const Args&);

  std::string synopsis_text() const {
    std::string text;
    for (const std::string_view part : synopsis) {
      if (!part.empty()) text.append(text.empty() ? "" : " ").append(part);
    }
    return text;
  }

  /// The synopsis split into words; a bracket group such as "[--hosts N]"
  /// or "[fig1..fig8 ...]" is one word.
  std::vector<std::string> words() const {
    const std::string text = synopsis_text();
    std::vector<std::string> words;
    for (std::size_t at = 0, end = 0; at < text.size(); at = end + 1) {
      end = std::min(text.find(text[at] == '[' ? "] " : " ", at), text.size());
      if (text[at] == '[' && end < text.size()) ++end;
      words.push_back(text.substr(at, end - at));
    }
    return words;
  }

  /// Throws UsageError, naming the word, unless `given` fits the
  /// positionals the synopsis declares: one per "<word>" or bare word, at
  /// most one per "[word]", any number for a last "[word ...]".
  void check_positionals(const std::vector<std::string>& given) const {
    std::vector<std::string> declared;
    for (std::string& word : words()) {
      if (word.rfind("[--", 0) != 0) declared.push_back(std::move(word));
    }
    const bool repeats = !declared.empty() &&
                         declared.back().find("...") != std::string::npos;
    if (!repeats && given.size() > declared.size()) {
      throw util::UsageError("unexpected argument '" +
                             given[declared.size()] + "'");
    }
    if (given.size() < declared.size() && declared[given.size()][0] != '[') {
      throw util::UsageError("missing " + declared[given.size()]);
    }
  }
};

constexpr Command kCommands[] = {
    {"figures", {"[fig1..fig8 ...]", kFigureFlags, "[--metrics-out FILE]"},
     "reproduce the paper's figures as tables", cmd_figures},
    {"metrics",
     {"[fig1..fig8 ...]", kFigureFlags,
      "[--seed S] [--format json|prom] [--out FILE]"},
     "obs registry snapshot of figure runs (default fig5, 3 reps)",
     cmd_metrics},
    {"guest", {"<7z|matrix|iobench|netbench>", kFigureFlags, "[--env NAME]"},
     "guest slowdown of one workload per hypervisor (1.0 = native)",
     cmd_guest},
    {"host",
     {kFigureFlags,
      "[--env NAME] [--threads N] [--priority idle|normal|high] [--vms N] "
      "[--os xp|linux]"},
     "host 7z %CPU and MIPS ratio beside pegged VMs", cmd_host},
    {"suite", {"[--iterations N]"}, "run the native NBench suite", cmd_suite},
    {"compress", {"<input> <output>"},
     "compress a real file with the LZMA-family codec",
     [](const Args& args) { return compress_file(args, false); }},
    {"decompress", {"<input> <output>"},
     "decompress a file written by `vgrid compress`",
     [](const Args& args) { return compress_file(args, true); }},
    {"deploy", {"[--volunteers N] [--image-mb M]"},
     "compare VM image deployment strategies", cmd_deploy},
    {"churn", {"[--workunit-hours H] [--session-hours H] [--no-checkpoint]"},
     "workunit completion under volunteer churn", cmd_churn},
    {"migrate", {"[--ram-mb M] [--dirty-mbps R]"},
     "cold vs live VM migration estimates", cmd_migrate},
    {"timeline",
     {"[--scenario S] [--env NAME] [--threads N] [--os xp|linux]",
      "[--out FILE]"},
     "trace the Fig. 7 sweep; --out writes a Chrome trace", cmd_timeline},
    {"profiles", {"[--scenario S]"}, "list the hypervisor profiles",
     cmd_profiles},
    {"scenarios", {"[--show NAME|FILE]"},
     "list the built-in scenarios, or print one in canonical form",
     cmd_scenarios},
    {"profile",
     {"[fig1..fig8]", kFigureFlags, "[--top N] [--out FILE] [--folded FILE]"},
     "profile one figure run: top-N self time, JSON tree, folded stacks",
     cmd_profile},
    {"bench", {"[--quick] [--jobs N] [--scenario S] [--out FILE]"},
     "macro-benchmark suite -> canonical BENCH_vgrid.json", cmd_bench},
    {"fleet",
     {kFleetFlags,
      "[--out FILE] [--metrics-out FILE] [--selfcheck] [--timeseries]"},
     "population run: percentile summary, identical for any --jobs",
     cmd_fleet},
    {"timeseries", {"[fig1..fig8]", kFigureFlags, kSamplerFlags},
     "export the deterministic sim-time series of a figure run",
     cmd_timeseries},
    {"timeseries", {"fleet", kFleetFlags, kSamplerFlags},
     "the same for the fleet's shard checkpoints", cmd_timeseries},
    {"watch", {"[fleet]", kFleetFlags, "[--no-progress]"},
     "live fleet progress on stderr; the summary on stdout",
     cmd_watch_fleet},
    {"watch", {"grid", "[--workunits W] [--clients C]", "[--no-progress]"},
     "live progress of a real grid server polled via SCRAPE",
     cmd_watch_grid},
    {"trace", {"[fleet]", kFleetFlags, "[--ring N]", kTraceFlags},
     "per-workunit lifecycle timelines; --out writes a Chrome trace",
     cmd_trace},
    {"trace", {"grid", kGridScriptFlags, kTraceFlags},
     "the same for a scripted grid protocol run", cmd_trace},
    {"tails",
     {"[fleet]", kFleetFlags, "[--ring N] [--selfcheck] [--timeseries]"},
     "turnaround decomposition and wasted-work ledger", cmd_tails},
    {"tails", {"grid", kGridScriptFlags, "[--selfcheck]"},
     "the same for a scripted grid protocol run", cmd_tails},
    {"mc",
     {"[--clients N] [--workunits W] [--replication R] [--quorum Q] "
      "[--deaths K] [--max-depth D] [--max-states N]",
      "[--inject-fault none|double_credit|lost_workunit] [--no-dpor] "
      "[--no-state-cache]",
      "[--trace-out FILE] [--min-interleavings N] [--replay FILE]"},
     "model-check the grid protocol's interleavings", cmd_mc},
    {"determinism-audit",
     {"[fig1..fig8]", kFigureFlags,
      "[--seed S] [--metrics-only] [--profile] [--eventlog] [--timeseries]"},
     "byte-diff a serial run against an N-worker run (exit 1 on divergence)",
     cmd_determinism_audit},
    {"determinism-audit",
     {"fleet", kFleetFlags, "[--eventlog] [--ring N] [--timeseries]"},
     "the same for the fleet summary, metrics and journal",
     cmd_determinism_audit},
    {"audit-selftest", {"<empty-pop|empty-next-time>"},
     "trip a precondition audit on purpose (exits 1)", cmd_audit_selftest},
};

/// `lead` then the synopsis, wrapped between words at 79 columns with
/// continuation lines aligned under the synopsis.
void print_synopsis(const std::string& lead, const Command& command) {
  std::string line = lead;
  for (const std::string& word : command.words()) {
    if (line.size() > lead.size() && line.size() + 1 + word.size() > 79) {
      std::fprintf(stderr, "%s\n", line.c_str());
      line.assign(lead.size(), ' ');
    }
    line.append(" ").append(word);
  }
  std::fprintf(stderr, "%s\n", line.c_str());
}

/// Usage generated from kCommands: every form of command `name`, or with
/// no name every command with its help line. Returns the usage exit code.
int usage(std::string_view name = {}) {
  if (name.empty()) {
    std::fprintf(stderr, "usage: vgrid <command> [options]\n"
                         "(--scenario S takes a built-in name from `vgrid "
                         "scenarios` or a scenario file)\n\n");
  }
  std::string lead = name.empty() ? "  " : "usage: vgrid ";
  for (const Command& command : kCommands) {
    if (!name.empty() && command.name != name) continue;
    print_synopsis(lead + std::string(command.name), command);
    if (name.empty()) {
      std::fprintf(stderr, "      %s\n", std::string(command.help).c_str());
    } else {
      lead = "       vgrid ";
    }
  }
  return 2;
}

/// The form of command `argv[1]` that the arguments select: the form whose
/// synopsis starts with the first positional, else the default form.
const Command* select_command(int argc, char** argv) {
  std::vector<const Command*> forms;
  std::string declared;
  for (const Command& command : kCommands) {
    if (argc < 2 || command.name != argv[1]) continue;
    forms.push_back(&command);
    declared += command.synopsis_text();
  }
  if (forms.size() < 2) return forms.empty() ? nullptr : forms.front();
  // Every form gives a shared flag the same kind, so parsing against all
  // of them finds the positionals.
  const Args probe(declared, argc, argv, 2);
  for (const Command* form : forms) {
    if (!probe.positional().empty() &&
        form->synopsis[0] == probe.positional()[0]) {
      return form;
    }
  }
  return forms.front();
}

int dispatch(int argc, char** argv) {
  try {
    const Command* command = select_command(argc, argv);
    if (command == nullptr) return usage();
    const Args args(command->synopsis_text(), argc, argv, 2);
    command->check_positionals(args.positional());
    return command->run(args);
  } catch (const util::UsageError& error) {
    std::fprintf(stderr, "vgrid %s: %s\n", argv[1], error.what());
    return usage(argv[1]);
  }
}

}  // namespace
}  // namespace vgrid::cli

int main(int argc, char** argv) {
  try {
    return vgrid::cli::dispatch(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vgrid: %s\n", error.what());
    return 1;
  }
}
