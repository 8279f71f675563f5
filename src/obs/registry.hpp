#pragma once
// vgrid::obs — the deterministic metrics & tracing layer.
//
// A Registry holds named instruments (Counter, Gauge, Histogram) with
// optional labels. Every value is INTEGRAL by design: integer arithmetic
// is associative and commutative, so per-task sub-registries merged in
// task order reproduce a serial run bit for bit — the same contract the
// parallel experiment engine gives for measured results. Callers that
// have fractional quantities scale them (nanoseconds, bytes, micro-units)
// before recording.
//
// Wiring pattern (the obs::Context contract, see obs/context.hpp):
//  - the CLI / bench installs a Registry as the calling thread's *current*
//    registry (ScopedRegistry);
//  - instrumented components resolve their instruments ONCE, at
//    construction, from obs::current() — when no registry is installed the
//    pointers stay null and recording is a single branch, so experiments
//    that don't ask for metrics pay nothing;
//  - core::TaskPool forks the context through obs::FanOut: a fresh
//    sub-registry per task, merged in task order after the run, so
//    snapshots are byte-identical for any --jobs value (enforced by
//    `vgrid determinism-audit` and ctest `determinism.audit.fig5.metrics`).
//
// Instruments are thread-aware: updates are relaxed atomics, so the
// multi-threaded subsystems (grid TCP server/client) can share one
// registry; creation/lookup takes a mutex and is expected only at
// component construction time.
//
// ScopedSpan records a profiling span (wall time always, sim time when a
// clock is supplied) into the current registry. Spans are observability
// only: report::write_obs_trace renders them next to the sim::Tracer
// timeline, and they are deliberately EXCLUDED from snapshots because
// wall-clock durations are not deterministic.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/context.hpp"

namespace vgrid::obs {

/// Sorted label set: std::map keeps snapshot/merge order deterministic
/// regardless of the order call sites list their labels in.
using Labels = std::map<std::string, std::string>;

// ---- instruments ------------------------------------------------------------

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class Registry;
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value with an explicit cross-task aggregation policy.
/// kMax/kMin suit high-water/low-water marks; kLast keeps the most recent
/// set() in task order; kSum adds task-local values.
class Gauge {
 public:
  enum class Agg : std::uint8_t { kMax, kMin, kLast, kSum };

  void set(std::int64_t value) noexcept;

  /// set(max(current, value)) — the common high-water update, lock-free.
  void update_max(std::int64_t value) noexcept;

  std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  bool ever_set() const noexcept {
    return set_.load(std::memory_order_relaxed);
  }
  Agg agg() const noexcept { return agg_; }

 private:
  friend class Registry;
  explicit Gauge(Agg agg) : agg_(agg) {}
  Agg agg_;
  std::atomic<bool> set_{false};
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram over int64 observations. `bounds` are inclusive
/// upper bounds in ascending order; one implicit +Inf bucket follows.
class Histogram {
 public:
  void observe(std::int64_t value) noexcept;

  const std::vector<std::int64_t>& bounds() const noexcept { return bounds_; }
  /// Count in bucket `i` (i == bounds().size() is the +Inf bucket).
  std::uint64_t bucket_count(std::size_t i) const noexcept {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  std::int64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Valid only when count() > 0.
  std::int64_t min() const noexcept {
    return min_.load(std::memory_order_relaxed);
  }
  std::int64_t max() const noexcept {
    return max_.load(std::memory_order_relaxed);
  }

  /// Estimated q-quantile (q in [0,1]) by linear interpolation inside the
  /// bucket holding the ceil(q*count)-th observation, clamped to
  /// [min, max] so the tracked extremes bound the estimate even in the
  /// open-ended +Inf bucket. Integer counts in, integer estimate out —
  /// deterministic for a deterministic workload. Returns 0 when empty.
  std::int64_t percentile(double q) const noexcept;

 private:
  friend class Registry;
  explicit Histogram(std::vector<std::int64_t> bounds);
  std::vector<std::int64_t> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{0};
  std::atomic<std::int64_t> max_{0};
};

// ---- spans ------------------------------------------------------------------

/// One completed profiling span. Wall times come from util::monotonic_time_ns;
/// sim times are sim::SimTime ticks (ns) when the span had a sim clock.
struct SpanRecord {
  std::string name;
  std::int64_t wall_start_ns = 0;
  std::int64_t wall_end_ns = 0;
  bool has_sim_time = false;
  std::int64_t sim_start_ns = 0;
  std::int64_t sim_end_ns = 0;
};

// ---- registry ---------------------------------------------------------------

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create. Instruments live as long as the registry; returned
  /// pointers are stable. Throws ConfigError if the same (name, labels) was
  /// created as a different instrument type, or — for gauges/histograms —
  /// with a different aggregation / bucket layout.
  Counter& counter(const std::string& name, const Labels& labels = {});
  Gauge& gauge(const std::string& name, const Labels& labels = {},
               Gauge::Agg agg = Gauge::Agg::kMax);
  Histogram& histogram(const std::string& name,
                       std::vector<std::int64_t> bounds,
                       const Labels& labels = {});

  /// Const lookups: nullptr when the instrument does not exist. Unlike
  /// the get-or-create accessors these never mutate, so read-only
  /// consumers (the report renderers) can take a const Registry&.
  const Counter* find_counter(const std::string& name,
                              const Labels& labels = {}) const;
  const Histogram* find_histogram(const std::string& name,
                                  const Labels& labels = {}) const;

  /// Label sets of every instrument named `name`, in deterministic
  /// (sorted) order — how a renderer enumerates e.g. the per-label
  /// ledger counters without knowing the labels up front.
  std::vector<Labels> label_sets(const std::string& name) const;

  void add_span(SpanRecord span);
  /// Completed spans in recording order (task order after a merge).
  std::vector<SpanRecord> spans() const;

  /// Fold `other` into this registry: counters and histograms add, gauges
  /// combine per their Agg. Call in task-index order — integer arithmetic
  /// then makes the result identical to serial accumulation.
  void merge_from(const Registry& other);

  /// Arm the seeded dropped-merge mutation: the next merge_from() call is
  /// silently skipped. Only the fleet.finds.dropped_shard fixture uses
  /// this — it proves the fleet selfcheck notices a lost shard.
  void inject_dropped_merge_for_test() noexcept;

  /// Canonical snapshot: versioned JSON, one instrument per line, sorted
  /// by (name, labels). Byte-identical across --jobs values for a
  /// deterministic workload. Spans are excluded (wall time).
  std::string snapshot_json() const;

  /// Prometheus text exposition (names have '.' mapped to '_' and a
  /// "vgrid_" prefix; histograms emit cumulative _bucket series).
  std::string snapshot_prometheus() const;

  /// Number of distinct instruments (for tests).
  std::size_t instrument_count() const;

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& other) const noexcept {
      if (name != other.name) return name < other.name;
      return labels < other.labels;
    }
  };
  struct Entry {
    // exactly one is non-null
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  // The time-resolved sampler enumerates instruments_ under mutex_ — the
  // one sanctioned periodic scrape path (lint: obs-timeseries-gateway).
  friend class Timeseries;

  mutable std::mutex mutex_;
  std::map<Key, Entry> instruments_;
  std::vector<SpanRecord> spans_;
  bool drop_next_merge_ = false;
};

// ---- ambient current registry ----------------------------------------------
// obs::current() (the calling thread's registry, nullptr when metrics are
// off) and ScopedRegistry live in obs/context.hpp with the other sinks.

/// Resolve an instrument from the current registry, or nullptr when
/// metrics are off. Components call these ONCE at construction and keep
/// the pointer; each recording site is then `if (ptr) ptr->add(...)`.
inline Counter* maybe_counter(const std::string& name,
                              const Labels& labels = {}) {
  Registry* registry = current();
  return registry ? &registry->counter(name, labels) : nullptr;
}
inline Gauge* maybe_gauge(const std::string& name, const Labels& labels = {},
                          Gauge::Agg agg = Gauge::Agg::kMax) {
  Registry* registry = current();
  return registry ? &registry->gauge(name, labels, agg) : nullptr;
}
inline Histogram* maybe_histogram(const std::string& name,
                                  std::vector<std::int64_t> bounds,
                                  const Labels& labels = {}) {
  Registry* registry = current();
  return registry ? &registry->histogram(name, std::move(bounds), labels)
                  : nullptr;
}

/// RAII profiling span recorded into the registry current AT CONSTRUCTION.
/// `sim_clock` (optional) is sampled at both ends so the span carries sim
/// time next to wall time; pass [&sim] { return sim.now(); }.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name,
                      std::function<std::int64_t()> sim_clock = {});
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Registry* registry_;
  std::function<std::int64_t()> sim_clock_;
  SpanRecord record_;
};

// ---- well-known instrument taxonomy ----------------------------------------

/// Bucket layout of the `grid.client.rpc_latency_us` histograms, shared by
/// register_defaults and the client so labeled and aggregate series merge.
inline std::vector<std::int64_t> rpc_latency_buckets_us() {
  return {100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000};
}

/// Bucket layout of the server-side `grid.server.rpc_ns` histograms
/// (wall-clock service time per message type, nanoseconds): loopback
/// handling runs microseconds to low milliseconds.
inline std::vector<std::int64_t> rpc_server_ns_buckets() {
  return {2'000,     5'000,     10'000,     30'000,      100'000,
          300'000,   1'000'000, 3'000'000,  10'000'000,  30'000'000,
          100'000'000};
}

/// Pre-register the canonical instrument set of every instrumented
/// subsystem (zero-valued until the corresponding component runs), so a
/// snapshot always shows the full taxonomy — sim, os, hw, vmm, guest and
/// grid each contribute at least two instruments even when a run exercises
/// only some layers.
void register_defaults(Registry& registry);

/// Write both export formats: snapshot_json() to `path` and
/// snapshot_prometheus() to `path + ".prom"`. Throws util::SystemError if
/// either file cannot be written.
void write_snapshot(const Registry& registry, const std::string& path);

}  // namespace vgrid::obs
