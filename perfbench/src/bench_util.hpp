#pragma once
// Shared plumbing of the benchmark program: command-line options, the
// benchmark's own span recorder, order statistics, output checks and the
// report that ends every run with one JSON line.
//
// Every timing here is host time from std::chrono::steady_clock, read in
// the benchmark's own files around calls into vgrid's public functions;
// nothing inside src/ is instrumented for the benchmark.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "report/chrome_trace.hpp"

namespace vgrid::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< where the traced run writes its spans
};

/// steady_clock nanoseconds.
std::int64_t now_ns();

/// One span: a call into one layer, as seen from the benchmark. `run` is
/// the operation (suite, fleet run, grid round) the span belongs to.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t run = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Thread-safe in-memory span store, written out once at the end.
class SpanRecorder {
 public:
  /// Reserve an id for a span whose children are recorded before it ends.
  std::uint64_t next_id();
  void add(Span span);
  std::vector<Span> spans() const;

 private:
  mutable std::mutex mutex_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) into `recorder` when it
/// is non-null, and is a no-op otherwise (the untraced path).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string name, std::uint64_t parent,
             std::uint64_t run);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::uint64_t id() const noexcept { return span_.id; }

 private:
  SpanRecorder* recorder_;
  Span span_;
};

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 when empty.
double quantile(std::vector<double> values, double q);

/// Peak resident set of this process (VmHWM), MB.
double peak_rss_mb();

/// Sum of a counter over every label set it was registered with.
std::uint64_t counter_sum(const obs::Registry& registry,
                          const std::string& name);
/// Quantile over the merged buckets of every label set of a histogram,
/// interpolated the same way obs::Histogram::percentile does.
double histogram_quantile(const obs::Registry& registry,
                          const std::string& name, double q);

/// Counts checks and failures, and collects the metrics of one run.
class Report {
 public:
  /// Record one check; a failure is printed to stderr.
  bool check(bool ok, const std::string& what);
  /// One attempted operation that threw or failed.
  void fail(const std::string& what);
  /// `n` attempted operations that succeeded.
  void add_attempts(std::uint64_t n) noexcept { attempted_ += n; }

  /// A metric of the JSON result: an end-to-end one untraced, a per-layer
  /// one traced. `samples` is printed beside it. run.py checks the names
  /// and units against BENCHMARK.json, and reports 0 for each per-layer
  /// metric a workload does not run.
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples);
  /// A line of the human-readable summary that is not in the JSON result.
  void note(const std::string& name, double value, const std::string& unit,
            std::size_t samples);

  /// Print the summary table and the final JSON line.
  void print(const Options& options) const;

 private:
  struct Value {
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, Value>> metrics_;
  std::vector<std::pair<std::string, Value>> notes_;
};

/// Sum of TaskPool worker spans over jobs x wall time: the share of the
/// pool that was busy; a serial merge shows up as idle workers.
double busy_fraction(const std::vector<report::WorkerSpan>& spans, int jobs,
                     double wall_s);

/// Report the simulated layers of one operation from its registry: the
/// sim, os, hw and vmm counters, and sim.host_ns_per_event, the
/// untraced median time `op_s` of the simulation over dispatched events.
void report_simulated_layers(Report& report, const obs::Registry& registry,
                             double op_s, std::size_t op_samples);

/// Write the traced run's artifacts as one JSON document: the spans, the
/// obs::Registry snapshot of one traced operation, and the TaskPool worker
/// spans. Throws on I/O failure.
void write_trace(const std::string& path, const Options& options,
                 const std::vector<Span>& spans,
                 const std::string& registry_snapshot,
                 const std::vector<report::WorkerSpan>& worker_spans);

// The three workloads (figures.cpp, fleet_journal.cpp, grid_closed_loop.cpp).
void run_figures(const Options& options, Report& report);
void run_fleet_journal(const Options& options, Report& report);
void run_grid_closed_loop(const Options& options, Report& report);

}  // namespace vgrid::perfbench
