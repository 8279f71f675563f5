#pragma once
// vgrid::obs — the ambient observability context. Instrumented code never
// receives a sink as a parameter; it reads the calling thread's current
// Registry, Profiler, EventLog, Timeseries or determinism-audit trace
// capture from ONE constinit thread-local Context, so every
// instrumentation site with no sink installed costs one TLS load plus a
// branch. ScopedContext installs a whole Context; the Scoped* aliases swap
// one field each. Work that crosses threads goes through the one merge
// seam, obs::FanOut (used by core::TaskPool and grid::ProjectServer's
// serve thread), so every export is byte-identical for any worker count.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

namespace vgrid::obs {

class Registry;
class Profiler;
class EventLog;
class Timeseries;

/// The calling thread's sinks. A null field means that leg is off.
struct Context {
  Registry* registry = nullptr;
  Profiler* profiler = nullptr;
  EventLog* event_log = nullptr;
  Timeseries* timeseries = nullptr;
  /// Determinism-audit hook: every core::Testbed built while this is set
  /// enables its tracer and appends the full trace dump here when it is
  /// destroyed (`vgrid determinism-audit` byte-diffs the result).
  std::string* trace_capture = nullptr;

  bool operator==(const Context&) const = default;
};

namespace detail {
/// Defined in context.cpp. Exposed so every accessor below inlines to a
/// direct TLS load; constinit skips the lazy-init wrapper. Code outside
/// this header names t_context's fields directly and never takes a
/// reference, pointer or member pointer into it: UBSan null-checks such
/// an access with flags the linker's TLS relaxation invalidates, so the
/// check fires spuriously.
extern thread_local constinit Context t_context;
}  // namespace detail

/// A copy of the calling thread's whole context.
inline Context context() noexcept { return detail::t_context; }

inline Registry* current() noexcept { return detail::t_context.registry; }
inline Profiler* current_profiler() noexcept {
  return detail::t_context.profiler;
}
inline EventLog* current_event_log() noexcept {
  return detail::t_context.event_log;
}
inline Timeseries* current_timeseries() noexcept {
  return detail::t_context.timeseries;
}

/// RAII installer of a whole Context; restores the previous one on exit.
class ScopedContext {
 public:
  explicit ScopedContext(const Context& context) noexcept
      : previous_(detail::t_context) {
    detail::t_context = context;
  }
  ~ScopedContext() { detail::t_context = previous_; }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  Context previous_;
};

/// RAII installer of one Context field; restores that field on exit.
template <typename Sink, Sink* Context::*Field>
class ScopedSink {
 public:
  explicit ScopedSink(Sink* sink) noexcept : previous_(exchange(sink)) {}
  ~ScopedSink() { exchange(previous_); }
  ScopedSink(const ScopedSink&) = delete;
  ScopedSink& operator=(const ScopedSink&) = delete;

 private:
  /// Set the field, return its old value (through a copy; see t_context).
  static Sink* exchange(Sink* sink) noexcept {
    Context next = detail::t_context;
    Sink* previous = next.*Field;
    next.*Field = sink;
    detail::t_context = next;
    return previous;
  }

  Sink* previous_;
};

using ScopedRegistry = ScopedSink<Registry, &Context::registry>;
using ScopedProfiler = ScopedSink<Profiler, &Context::profiler>;
using ScopedEventLog = ScopedSink<EventLog, &Context::event_log>;
using ScopedTimeseries = ScopedSink<Timeseries, &Context::timeseries>;
using ScopedTraceCapture = ScopedSink<std::string, &Context::trace_capture>;

/// Task-ordered fan-out of a parent Context over `count` tasks: each task
/// gets a fresh sink for every non-null parent field and nothing for the
/// null ones. install(i) points the calling thread at task i's sinks;
/// merge() folds every task into the parent in index order (profile trees
/// graft under the scope the merging thread has open). Call merge() only
/// after every task finished, on the thread that owns the parent sinks;
/// a fan-out destroyed unmerged leaves the parent untouched.
class FanOut {
 public:
  FanOut(const Context& parent, std::size_t count);
  ~FanOut();
  FanOut(const FanOut&) = delete;
  FanOut& operator=(const FanOut&) = delete;

  /// Safe to call concurrently for distinct indices.
  [[nodiscard]] ScopedContext install(std::size_t index);
  void merge();

 private:
  struct Task {
    std::unique_ptr<Registry> registry;
    std::unique_ptr<Profiler> profiler;
    std::unique_ptr<EventLog> event_log;
    std::unique_ptr<Timeseries> timeseries;
    std::string trace_capture;
  };

  Context parent_;
  std::vector<Task> tasks_;  // empty when the parent has no sink at all
};

}  // namespace vgrid::obs
