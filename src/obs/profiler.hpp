#pragma once
// vgrid::obs — self-profiling layer: low-overhead scoped wall-clock timers
// aggregated into a per-thread profile tree.
//
// The metrics layer (registry.hpp) answers "what did the simulation do";
// the profiler answers "where did *our own* wall-clock time go" — the
// paper's methodology demands both: workload results AND an overhead
// profile of the measurement system itself. The two are deliberately
// split: metrics are sim-deterministic integers that join the
// determinism-audit byte stream; profiles are wall-clock and therefore
// never do.
//
// Contract (mirrors obs::Registry):
//  - PROF_SCOPE("sim.event_queue.pop") is an RAII scope. When no profiler
//    is installed on the calling thread the cost is one thread-local load
//    and a branch; when VGRID_PROFILE=OFF at configure time the macro
//    compiles to nothing at all.
//  - A Profiler is THREAD-CONFINED: it is installed as the calling
//    thread's current profiler (ScopedProfiler, one field of the ambient
//    obs::Context) and only that thread may enter/leave scopes on it.
//    Cross-thread aggregation goes through obs::FanOut (obs/context.hpp):
//    core::TaskPool forks a fresh sub-profiler per task and
//    grid::ProjectServer one for its serve thread; the fan-out merges
//    them in task order, grafting each task's tree under the scope the
//    merging thread has open, so nested time is never double-counted.
//  - Profiling must never perturb the simulation: scopes read only the
//    sanctioned wall clock (util::monotonic_time_ns) and touch no sim
//    state, so `vgrid determinism-audit --profile` stays byte-identical
//    with profiling enabled (ctest determinism.audit.fig5.profile).
//
// Exports (rendering lives in report/profile_export.*): a canonical
// sorted JSON tree, a Brendan-Gregg folded-stack file for
// flamegraph.pl / speedscope, and a top-N exclusive-time table behind
// `vgrid profile <fig>`. Node *values* are wall times and vary run to
// run; node *structure* (names, nesting, counts) is deterministic for a
// deterministic workload — test_profiler pins that invariant.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/context.hpp"

namespace vgrid::obs {

class Profiler {
 public:
  /// One aggregated scope. Index 0 is the synthetic root (empty name)
  /// that anchors the tree and never accrues time itself.
  struct Node {
    std::string name;
    std::int32_t parent = 0;
    std::uint64_t count = 0;          ///< completed enter/leave pairs
    std::int64_t inclusive_ns = 0;    ///< wall time including children
    std::vector<std::int32_t> children;  ///< creation order; sort on export
  };

  Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Enter the scope `name` under the current node, creating the child on
  /// first use (two sites with the same literal share one node). Returns
  /// the node index for the matching leave(). Hot path: a pointer-equality
  /// scan over the current node's children, falling back to a string
  /// compare for cross-TU literals.
  std::int32_t enter(const char* name);

  /// Close the scope opened by the matching enter(). `elapsed_ns` is the
  /// caller-measured wall time (the ProfScope holds the start stamp so
  /// the profiler itself stays clock-free).
  void leave(std::int32_t index, std::int64_t elapsed_ns) noexcept;

  /// Fold `other` into this tree under the scope currently open — where
  /// the other tree's time was actually spent: nodes are matched by path
  /// (parent chain of names), counts and inclusive times add, unmatched
  /// paths are created. Call in task order — the merged structure is then
  /// identical regardless of which worker ran which task.
  void merge_from(const Profiler& other);

  /// Exclusive time of `index`: inclusive minus the children's inclusive.
  /// Can be marginally negative when timer granularity rounds against a
  /// parent; exporters clamp at zero.
  std::int64_t exclusive_ns(std::int32_t index) const noexcept;

  /// All nodes; indices are stable for the profiler's lifetime.
  const std::vector<Node>& nodes() const noexcept { return nodes_; }

  /// True when no scope has ever been recorded (root has no children).
  bool empty() const noexcept { return nodes_[0].children.empty(); }

  /// Total inclusive wall time of the root's direct children.
  std::int64_t total_ns() const noexcept;

 private:
  friend class ProfScope;

  std::int32_t child_of(std::int32_t parent, const char* name);

  std::vector<Node> nodes_;
  // First literal pointer seen per node, for the pointer-equality fast
  // path (same index space as nodes_).
  std::vector<const char*> name_ptrs_;
  std::int32_t current_ = 0;
};

/// RAII scope timer. `name` must outlive the profiler (string literals).
/// Binds to the profiler current AT CONSTRUCTION; when none is installed
/// the constructor is a load + branch and the destructor a branch.
class ProfScope {
 public:
  explicit ProfScope(const char* name) : profiler_(current_profiler()) {
    if (profiler_ != nullptr) begin(name);
  }
  ~ProfScope() {
    if (profiler_ != nullptr) end();
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  void begin(const char* name);  ///< slow path: enter scope, stamp clock
  void end() noexcept;           ///< slow path: stamp clock, leave scope

  Profiler* profiler_;
  std::int32_t node_ = 0;
  std::int64_t start_ns_ = 0;
};

}  // namespace vgrid::obs

// ---- PROF_SCOPE -------------------------------------------------------------
// The instrumentation macro. Configure-time kill switch: -DVGRID_PROFILE=OFF
// removes every scope from the binary (the macro expands to a void cast);
// VGRID_PROFILE_FORCE_OFF does the same per translation unit (used by
// test_profiler to prove the off-path compiles to nothing).

#if defined(VGRID_PROFILE_ENABLED) && VGRID_PROFILE_ENABLED && \
    !defined(VGRID_PROFILE_FORCE_OFF)
#define VGRID_PROF_CONCAT_INNER(a, b) a##b
#define VGRID_PROF_CONCAT(a, b) VGRID_PROF_CONCAT_INNER(a, b)
#define PROF_SCOPE(name)                                             \
  ::vgrid::obs::ProfScope VGRID_PROF_CONCAT(vgrid_prof_scope_,       \
                                            __LINE__) {              \
    name                                                             \
  }
#else
#define PROF_SCOPE(name) static_cast<void>(0)
#endif
