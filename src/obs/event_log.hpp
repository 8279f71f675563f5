#pragma once
// vgrid::obs — the causal workunit-lifecycle journal (the third leg of
// the observability triangle next to Registry and Profiler).
//
// An EventLog records one Trace per workunit (or per simulated fleet
// host): a causally-linked sequence of lifecycle events
// (created -> dispatched -> computing -> submitted ->
// validated/reissued/expired -> credited) with LOGICAL timestamps, so a
// deterministic workload produces a byte-identical journal for any
// --jobs value. Each event carries a `value` — the duration it accounts
// to one of four turnaround components (queue-wait, compute, validation,
// retry) — so `vgrid tails` can decompose turnaround percentiles with
// exact integer arithmetic that reconciles against the component
// histograms the log accumulates internally (those aggregates survive
// ring eviction; retained traces are the drill-down, the histograms are
// the truth).
//
// Two retention modes:
//  - journal (ring_capacity == 0): every closed trace is retained;
//  - flight recorder (ring_capacity > 0): bounded memory for
//    `vgrid fleet --hosts 100000` — ANOMALOUS traces (any reissue /
//    expiry / invalid result) are always retained in full, the
//    `tail_keep` slowest normal traces are pinned, and the remaining
//    normal traces live in a last-N ring whose evictions count into
//    ring_churn().
//
// Wiring follows the Registry/Profiler pattern exactly:
//  - the CLI installs a log as the calling thread's CURRENT log
//    (ScopedEventLog, one field of the ambient obs::Context); when none
//    is installed the EVT_* macros are one thread-local load + branch;
//  - instrumented code writes ONLY through the EVT_* macros (lint rule
//    `obs-eventlog-gateway`), so the VGRID_EVENTLOG=OFF kill switch
//    removes every instrumentation site at compile time
//    (VGRID_EVENTLOG_FORCE_OFF does the same per TU);
//  - obs::FanOut (obs/context.hpp) — used by core::TaskPool and the
//    grid serve thread — forks a fresh sub-log per task and merges them
//    in task order, so journals are byte-identical for any --jobs value
//    (enforced by `vgrid determinism-audit --eventlog`);
//  - appends are transition-silent: they never call mc::notify and never
//    touch protocol state, so the model checker's state graph is
//    identical with the journal on or off.

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace vgrid::obs {

// ---- event taxonomy ---------------------------------------------------------

enum class EventKind : std::uint8_t {
  kCreated = 0,
  kDispatched,
  kComputing,
  kSubmitted,
  kValidated,
  kInvalid,
  kReissued,
  kExpired,
  kCredited,
};

/// Stable lower-case name ("created", "dispatched", ...).
const char* event_kind_name(EventKind kind) noexcept;

/// Reissue / expiry / invalid-result events mark the whole trace
/// anomalous: the flight recorder never evicts such a lifecycle.
bool event_kind_anomalous(EventKind kind) noexcept;

/// The turnaround component an event's `value` accounts toward.
enum class Component : std::uint8_t {
  kQueueWait = 0,
  kCompute,
  kValidation,
  kRetry,
  kNone,
};
inline constexpr std::size_t kComponentCount = 4;

Component event_component(EventKind kind) noexcept;
const char* component_name(Component component) noexcept;

// ---- journal records --------------------------------------------------------

/// `parent` sentinel: no causal parent (a trace's first event).
inline constexpr std::uint32_t kNoParent = 0xffffffffu;
/// `parent` sentinel for append calls: link to the previous event.
inline constexpr std::uint32_t kPrevEvent = 0xfffffffeu;

struct Event {
  std::uint32_t seq = 0;          ///< position within the trace
  std::uint32_t parent = kNoParent;  ///< seq of the causal parent event
  EventKind kind = EventKind::kCreated;
  std::int64_t t_ns = 0;   ///< logical timestamp (never wall clock)
  std::int64_t value = 0;  ///< duration accounted to event_component(kind)
  std::int64_t aux = 0;    ///< kind-specific scalar (ops-milli, credit-milli)
};

struct Trace {
  std::uint64_t trace_id = 0;
  std::string label;  ///< ledger grouping key (VMM profile, workunit kind)
  bool anomalous = false;
  std::vector<Event> events;
  /// Component durations, computed when the trace closes (and again after
  /// an open-trace merge); indexed by Component. total() is the
  /// turnaround the tails decomposition reconciles.
  std::int64_t components[kComponentCount] = {0, 0, 0, 0};
  std::int64_t total() const noexcept {
    std::int64_t sum = 0;
    for (std::int64_t component : components) sum += component;
    return sum;
  }

 private:
  friend class EventLog;
  std::uint64_t close_seq_ = 0;  ///< completion order across the log
};

// ---- the log ----------------------------------------------------------------

class EventLog {
 public:
  struct Config {
    /// 0 = journal mode (retain everything). > 0 = flight recorder:
    /// at most this many non-pinned normal traces are retained.
    std::size_t ring_capacity = 0;
    /// Slowest-normal traces pinned against eviction (ring mode).
    std::size_t tail_keep = 16;
    /// Bucket bounds of the component/turnaround histograms.
    std::vector<std::int64_t> duration_bounds;
    /// Unit of event values and histogram bounds ("ms", "us", ...).
    std::string unit = "ms";
  };

  EventLog();
  explicit EventLog(Config config);
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  const Config& config() const noexcept { return config_; }

  // -- journal writes (gateway: EVT_* macros only; see lint rule
  //    obs-eventlog-gateway) --------------------------------------------------

  /// Start a trace. Opening an id that is already open or closed is
  /// counted in duplicate_opens() and otherwise ignored.
  void open_trace(std::uint64_t trace_id, std::int64_t t_ns,
                  std::string label = {});

  /// Append one event. An unknown id implicitly opens an (unlabeled)
  /// trace, so out-of-order contributors — e.g. a client-side event
  /// arriving before the server's sub-log merges — are never lost; an
  /// append to an already-closed id is dropped and counted.
  void append_event(std::uint64_t trace_id, EventKind kind, std::int64_t t_ns,
                    std::int64_t value = 0, std::int64_t aux = 0,
                    std::uint32_t parent = kPrevEvent);

  /// Close a trace: compute its components, feed the aggregate
  /// histograms and the wasted-work ledger, then apply retention.
  void close_trace(std::uint64_t trace_id);

  // -- merge seam (obs::FanOut) ------------------------------------------------

  /// Fold `other` into this log in task order: aggregates add, closed
  /// traces replay through retention in their original close order, and
  /// still-open traces combine by id.
  void merge_from(const EventLog& other);

  /// Arm the seeded dropped-merge mutation: the next merge_from() call
  /// is silently skipped. Only the eventlog.finds.dropped_merge audit
  /// fixture uses this — it proves the tails selfcheck notices a lost
  /// sub-log.
  void inject_dropped_merge_for_test() noexcept;

  // -- queries ----------------------------------------------------------------

  std::uint64_t traces_opened() const;
  std::uint64_t traces_closed() const;
  std::uint64_t traces_anomalous() const;
  /// Normal traces evicted by the flight-recorder ring.
  std::uint64_t ring_churn() const;
  std::uint64_t duplicate_opens() const;
  std::uint64_t dropped_appends() const;
  std::size_t open_count() const;
  std::size_t retained_count() const;

  /// Retained closed traces in close order. Pointers are stable until
  /// the next write to the log.
  std::vector<const Trace*> traces() const;
  /// A retained closed trace by id (nullptr when unknown or evicted).
  const Trace* find_trace(std::uint64_t trace_id) const;

  /// Aggregate side of the journal: component histograms
  /// ("trace.component"{part=...}, "trace.turnaround") and the
  /// wasted-work ledger counters ("trace.deaths"/"trace.reissues"/
  /// "trace.wasted_duration"/"trace.wasted_ops_milli", labeled by the
  /// trace label). Fed at close time, so they cover EVERY closed trace
  /// regardless of ring eviction.
  const Registry& stats() const noexcept { return stats_; }

  /// Canonical byte-stable text rendering of the journal: header,
  /// counters, then every retained trace (sorted by trace id) with its
  /// full event list. The determinism audit compares these bytes across
  /// --jobs values.
  std::string render_journal() const;

 private:
  struct TailKey {
    std::int64_t total;
    std::uint64_t id;
    // Ascending "slowness": begin() of a set is the weakest member
    // (smallest total; ties prefer evicting the larger id).
    bool operator<(const TailKey& other) const noexcept {
      if (total != other.total) return total < other.total;
      return id > other.id;
    }
  };

  Trace* find_open_locked(std::uint64_t trace_id);
  void finalize_components(Trace& trace) const;
  void account_locked(const Trace& trace);
  void retain_locked(Trace&& trace);
  void evict_over_capacity_locked();

  Config config_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Trace> open_;
  std::list<Trace> closed_;  // retained, in close order
  std::map<std::uint64_t, std::list<Trace>::iterator> closed_index_;
  std::set<TailKey> tail_;  // pinned slowest normals (ring mode)
  std::set<std::pair<std::uint64_t, std::uint64_t>> ring_;  // (close_seq, id)
  std::uint64_t opened_ = 0;
  std::uint64_t closed_count_ = 0;
  std::uint64_t anomalous_count_ = 0;
  std::uint64_t evicted_ = 0;
  std::uint64_t duplicate_opens_ = 0;
  std::uint64_t dropped_appends_ = 0;
  std::uint64_t next_close_seq_ = 0;
  bool drop_next_merge_ = false;
  Registry stats_;
  // Component histograms resolved once; ledger counters cached per label.
  Histogram* component_hist_[kComponentCount] = {};
  Histogram* turnaround_hist_ = nullptr;
  struct LedgerHandles {
    Counter* deaths;
    Counter* reissues;
    Counter* wasted_duration;
    Counter* wasted_ops_milli;
  };
  std::map<std::string, LedgerHandles> ledger_;
};

/// Default bucket bounds for Config::duration_bounds (milliseconds) —
/// matches the fleet turnaround layout so tails decompositions line up.
std::vector<std::int64_t> event_duration_ms_buckets();

/// Whether this build compiled the EVT_* instrumentation sites in (the
/// VGRID_EVENTLOG option); the CLI uses this to explain empty journals.
#if defined(VGRID_EVENTLOG_ENABLED) && VGRID_EVENTLOG_ENABLED
inline constexpr bool kEventLogCompiledIn = true;
#else
inline constexpr bool kEventLogCompiledIn = false;
#endif

}  // namespace vgrid::obs

// ---- instrumentation macros -------------------------------------------------
// The ONE journal-write gateway. Enabled by the VGRID_EVENTLOG CMake
// option (compile definition VGRID_EVENTLOG_ENABLED); a TU can opt out
// with VGRID_EVENTLOG_FORCE_OFF. Disabled macros compile to nothing, so
// the kill switch provably removes every instrumentation site; enabled
// macros cost one thread-local load + branch when no log is installed.
#if defined(VGRID_EVENTLOG_ENABLED) && VGRID_EVENTLOG_ENABLED && \
    !defined(VGRID_EVENTLOG_FORCE_OFF)
#define EVT_TRACE_OPEN(trace_id, t_ns, label)                            \
  do {                                                                   \
    if (::vgrid::obs::EventLog* evt_log_ =                               \
            ::vgrid::obs::current_event_log()) {                         \
      evt_log_->open_trace((trace_id), (t_ns), (label));                 \
    }                                                                    \
  } while (false)
#define EVT_APPEND(trace_id, kind, t_ns, value, aux)                     \
  do {                                                                   \
    if (::vgrid::obs::EventLog* evt_log_ =                               \
            ::vgrid::obs::current_event_log()) {                         \
      evt_log_->append_event((trace_id), (kind), (t_ns), (value), (aux)); \
    }                                                                    \
  } while (false)
#define EVT_APPEND_LINKED(trace_id, kind, t_ns, value, aux, parent)      \
  do {                                                                   \
    if (::vgrid::obs::EventLog* evt_log_ =                               \
            ::vgrid::obs::current_event_log()) {                         \
      evt_log_->append_event((trace_id), (kind), (t_ns), (value), (aux), \
                             (parent));                                  \
    }                                                                    \
  } while (false)
#define EVT_TRACE_CLOSE(trace_id)                                        \
  do {                                                                   \
    if (::vgrid::obs::EventLog* evt_log_ =                               \
            ::vgrid::obs::current_event_log()) {                         \
      evt_log_->close_trace((trace_id));                                 \
    }                                                                    \
  } while (false)
#else
#define EVT_TRACE_OPEN(trace_id, t_ns, label) static_cast<void>(0)
#define EVT_APPEND(trace_id, kind, t_ns, value, aux) static_cast<void>(0)
#define EVT_APPEND_LINKED(trace_id, kind, t_ns, value, aux, parent) \
  static_cast<void>(0)
#define EVT_TRACE_CLOSE(trace_id) static_cast<void>(0)
#endif
