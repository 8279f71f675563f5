// Workload `figures`: the repo's purpose — all eight paper figures on the
// `paper` scenario, on the parallel experiment engine with four workers.
// It runs scenario -> core -> workloads -> vmm -> guest -> os -> hw -> sim
// and never touches the fleet, the journal or the grid.
//
// One operation is one suite (fig1 ... fig8 in paper order). Every suite
// runs at the same seed, so each must reproduce the first one exactly.

#include <cmath>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/experiments.hpp"
#include "core/task_pool.hpp"
#include "obs/event_log.hpp"
#include "scenario/scenario.hpp"
#include "workloads/iobench.hpp"

namespace vgrid::perfbench {
namespace {

constexpr int kRepetitions = 200;
constexpr int kJobs = 4;
constexpr int kSetups = 5;
constexpr int kGuestBuilds = 1000;

using FigureFn = core::FigureResult (*)(const scenario::Scenario&,
                                        core::RunnerConfig);

struct Figure {
  const char* id;
  FigureFn fn;
  std::size_t rows;  ///< bars the paper scenario yields
};

const Figure kFigures[] = {
    {"fig1", core::fig1_7z, 4},           {"fig2", core::fig2_matrix, 8},
    {"fig3", core::fig3_iobench, 4},      {"fig4", core::fig4_netbench, 6},
    {"fig5", core::fig5_mem_index, 8},   {"fig6", core::fig6_int_fp_index, 16},
    {"fig7", core::fig7_cpu_available, 10}, {"fig8", core::fig8_mips_ratio, 4},
};
constexpr std::size_t kFigureCount = sizeof(kFigures) / sizeof(kFigures[0]);

struct Suite {
  std::vector<core::FigureResult> figures;
  double figure_s[kFigureCount] = {};
  double wall_s = 0.0;
};

Suite run_suite(const scenario::Scenario& scenario,
                const core::RunnerConfig& runner, SpanRecorder* spans,
                std::uint64_t run) {
  Suite suite;
  const std::int64_t start = now_ns();
  ScopedSpan suite_span(spans, "figures.suite", 0, run);
  for (std::size_t i = 0; i < kFigureCount; ++i) {
    const std::int64_t fig_start = now_ns();
    {
      ScopedSpan span(spans, std::string("core.") + kFigures[i].id,
                      suite_span.id(), run);
      suite.figures.push_back(kFigures[i].fn(scenario, runner));
    }
    suite.figure_s[i] = static_cast<double>(now_ns() - fig_start) / 1e9;
  }
  suite.wall_s = static_cast<double>(now_ns() - start) / 1e9;
  return suite;
}

/// Rows and finiteness of every figure, and bit-identity with `first`.
void check_suite(const Suite& suite, const Suite* first, Report& report) {
  for (std::size_t i = 0; i < kFigureCount; ++i) {
    const core::FigureResult& figure = suite.figures[i];
    const std::string id = kFigures[i].id;
    report.check(figure.id == id, id + ": returned figure " + figure.id);
    report.check(figure.rows.size() == kFigures[i].rows,
                 id + ": " + std::to_string(figure.rows.size()) +
                     " rows, expected " + std::to_string(kFigures[i].rows));
    bool finite = true;
    for (const core::FigureRow& row : figure.rows) {
      finite = finite && std::isfinite(row.measured) &&
               (!row.paper || std::isfinite(*row.paper));
    }
    report.check(finite, id + ": non-finite value");
    if (first) {
      bool same = figure.rows.size() == first->figures[i].rows.size();
      for (std::size_t r = 0; same && r < figure.rows.size(); ++r) {
        same = figure.rows[r].label == first->figures[i].rows[r].label &&
               figure.rows[r].measured == first->figures[i].rows[r].measured;
      }
      report.check(same, id + ": differs from the first suite at one seed");
    }
  }
}

/// Mean absolute relative deviation from the paper, in percent, over every
/// row with a non-zero paper value.
double paper_err_pct(const Suite& suite, std::size_t* rows) {
  double sum = 0.0;
  *rows = 0;
  for (const core::FigureResult& figure : suite.figures) {
    for (const core::FigureRow& row : figure.rows) {
      if (!row.paper || *row.paper == 0.0) continue;
      sum += std::fabs(row.measured - *row.paper) / std::fabs(*row.paper);
      ++*rows;
    }
  }
  return *rows ? 100.0 * sum / static_cast<double>(*rows) : 0.0;
}

std::size_t cells_per_suite(const Suite& suite) {
  std::size_t rows = 0;
  for (const core::FigureResult& figure : suite.figures) {
    rows += figure.rows.size();
  }
  return rows * kRepetitions;
}

/// The guest layer. At this commit fig3 models direct (cache-defeating)
/// I/O, so no figure calls guest::PageCache. This builds fig3's IOBench
/// program on the scenario's file sizes with the page cache on, in the
/// paper-equivalent mode (fsync after each write, clean pages dropped
/// before each read), and reports the cache's byte hit ratio from the obs
/// counters and the median time to build one program.
void report_guest_layer(const scenario::Scenario& scenario,
                        SpanRecorder& spans, Report& report) {
  workloads::IoBenchConfig config;
  config.min_file_bytes = scenario.workloads.iobench_file_bytes.front();
  config.max_file_bytes = scenario.workloads.iobench_file_bytes.back();
  config.use_page_cache = true;
  const workloads::IoBench bench(config);
  obs::Registry registry;
  obs::register_defaults(registry);
  {
    obs::ScopedRegistry scope(&registry);
    ScopedSpan span(&spans, "guest.iobench_program", 0, 0);
    bench.make_program();
  }
  const auto hits =
      static_cast<double>(counter_sum(registry, "guest.page_cache.hit_bytes"));
  const auto misses =
      static_cast<double>(counter_sum(registry, "guest.page_cache.miss_bytes"));
  std::vector<double> build_us;
  for (int i = 0; i < kGuestBuilds; ++i) {
    const std::int64_t start = now_ns();
    bench.make_program();
    build_us.push_back(static_cast<double>(now_ns() - start) / 1e3);
  }
  report.metric("guest.page_cache_hit_ratio",
                hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio", 1);
  report.metric("guest.iobench_program_us", median(build_us), "us",
                build_us.size());
}

}  // namespace

void run_figures(const Options& options, Report& report) {
  // Set-up, repeated: scenario load, runner configuration and one untimed
  // warm-up suite (cold first suites run 2-3x slower).
  std::vector<double> setup_s;
  std::vector<double> load_s;
  scenario::Scenario scenario;
  core::RunnerConfig runner;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t start = now_ns();
    scenario = scenario::load("paper");
    load_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
    runner = core::figure_runner_config(scenario);
    runner.repetitions = kRepetitions;
    runner.jobs = kJobs;
    runner.seed = options.seed;
    run_suite(scenario, runner, nullptr, 0);
    setup_s.push_back(static_cast<double>(now_ns() - start) / 1e9);
  }

  // Timed operations. The traced run rotates three variants so that each
  // sees the same machine state: untraced, traced (obs::Registry, worker
  // spans and the benchmark's spans), and untraced with an obs::EventLog
  // installed (the journal, which figures never write to).
  enum Variant { kPlain, kTraced, kJournal };
  const int variants = options.trace ? 3 : 1;
  SpanRecorder spans;
  Suite first;
  bool have_first = false;
  std::vector<double> wall[3];
  std::vector<double> figure_s[kFigureCount];
  std::vector<double> busy_frac;
  std::vector<report::WorkerSpan> first_workers;
  std::string first_snapshot;
  obs::Registry first_registry;
  bool have_registry = false;
  const std::int64_t loop_start = now_ns();
  for (std::uint64_t op = 0;; ++op) {
    const auto variant = static_cast<Variant>(op % variants);
    const double elapsed = static_cast<double>(now_ns() - loop_start) / 1e9;
    if (elapsed >= options.seconds && op >= 2u * variants && variant == 0) {
      break;
    }
    Suite suite;
    if (variant == kTraced) {
      obs::Registry registry;
      obs::register_defaults(registry);
      std::vector<report::WorkerSpan> workers;
      core::set_worker_span_capture(&workers);
      {
        obs::ScopedRegistry scope(&registry);
        suite = run_suite(scenario, runner, &spans, op);
      }
      core::set_worker_span_capture(nullptr);
      busy_frac.push_back(busy_fraction(workers, kJobs, suite.wall_s));
      const std::string snapshot = registry.snapshot_json();
      if (!have_registry) {
        first_snapshot = snapshot;
        first_registry.merge_from(registry);
        first_workers = std::move(workers);
        have_registry = true;
      } else {
        report.check(snapshot == first_snapshot,
                     "obs counters differ between traced suites at one seed");
      }
    } else if (variant == kJournal) {
      obs::EventLog journal;
      obs::ScopedEventLog scope(&journal);
      suite = run_suite(scenario, runner, nullptr, op);
    } else {
      suite = run_suite(scenario, runner, nullptr, op);
    }
    wall[variant].push_back(suite.wall_s);
    if (variant == kPlain) {
      for (std::size_t i = 0; i < kFigureCount; ++i) {
        figure_s[i].push_back(suite.figure_s[i]);
      }
    }
    check_suite(suite, have_first ? &first : nullptr, report);
    if (!have_first) {
      first = std::move(suite);
      have_first = true;
    }
  }

  const double suite_s = median(wall[kPlain]);
  const auto cells = static_cast<double>(cells_per_suite(first));
  std::size_t paper_rows = 0;
  const double err_pct = paper_err_pct(first, &paper_rows);
  if (!options.trace) {
    report.metric("setup_s", median(setup_s), "s", setup_s.size());
    report.metric("throughput_per_s", cells / suite_s, "1/s",
                  wall[kPlain].size());
    report.metric("op_p50_ms", suite_s * 1e3, "ms", wall[kPlain].size());
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.note("cells_per_s", cells / suite_s, "1/s", wall[kPlain].size());
    report.note("paper_err_pct", err_pct, "%", paper_rows);
    return;
  }

  const std::size_t traced = wall[kTraced].size();
  report.metric("scenario.load_s", median(load_s), "s", load_s.size());
  for (std::size_t i = 0; i < kFigureCount; ++i) {
    report.metric(std::string("core.") + kFigures[i].id + "_s",
                  median(figure_s[i]), "s", figure_s[i].size());
  }
  report.metric("core.worker_busy_frac", median(busy_frac), "ratio", traced);
  report.metric("core.paper_err_pct", err_pct, "%", paper_rows);
  report_simulated_layers(report, first_registry, suite_s,
                          wall[kPlain].size());
  report.metric("obs.journal_overhead", median(wall[kJournal]) / suite_s,
                "ratio", wall[kJournal].size());
  report.metric("obs.tracing_overhead",
                (median(wall[kTraced]) - suite_s) * 1e3, "ms", traced);
  report_guest_layer(scenario, spans, report);
  if (!options.trace_out.empty()) {
    write_trace(options.trace_out, options, spans.spans(), first_snapshot,
                first_workers);
  }
}

}  // namespace vgrid::perfbench
