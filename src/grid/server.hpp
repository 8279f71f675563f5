#pragma once
// Mini-BOINC project server: the TCP transport + threading shell around
// grid::ServerLogic, the socket-free protocol core (server_logic.hpp).
// This class owns the listener socket, the serve thread, the mutex, and
// the obs instruments; every protocol decision (issue/reissue/validate/
// credit) lives in ServerLogic, where the model checker (src/mc) can
// explore it one transition at a time. Runs its accept loop on a
// background thread; all public methods are thread-safe.

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "grid/messages.hpp"
#include "grid/server_logic.hpp"
#include "grid/tcp_util.hpp"
#include "grid/workunit.hpp"
#include "obs/context.hpp"
#include "obs/registry.hpp"

namespace vgrid::grid {

class ProjectServer {
 public:
  /// Optional generator invoked when the queue runs dry; return false to
  /// stop generating (clients then receive NO_WORK).
  using Generator = ServerLogic::Generator;

  explicit ProjectServer(std::uint16_t port = 0);
  ~ProjectServer();
  ProjectServer(const ProjectServer&) = delete;
  ProjectServer& operator=(const ProjectServer&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Enqueue a workunit (id 0 assigns the next id). Returns the id.
  WorkunitId add_workunit(Workunit workunit);

  void set_generator(Generator generator);

  ServerStats stats() const;

  /// Canonical output of a validated workunit, if any.
  std::optional<std::string> canonical_result(WorkunitId id) const;

  /// State of a workunit, if known.
  std::optional<WorkunitState> workunit_state(WorkunitId id) const;

  /// A client's account: results accepted, CPU reported, credit granted
  /// (credit accrues only to results matching the canonical output when a
  /// workunit validates — BOINC's rule).
  StatsResponse client_account(const std::string& client_id) const;

  /// Live observability snapshot, the same view the SCRAPE message
  /// returns: Prometheus exposition of the constructing thread's registry
  /// plus rolling RPC service-time p50/p99 over the trailing
  /// kScrapeWindowMs of wall time.
  ScrapeResponse scrape_snapshot() const;

  /// Width of the rolling RPC-latency window SCRAPE summarizes.
  static constexpr std::int64_t kScrapeWindowMs = 10'000;

  void stop();

 private:
  void serve();
  void handle_connection(int fd);
  WorkResponse next_work(const WorkRequest& request);
  SubmitResponse accept_result(const SubmitRequest& request);
  /// Record one served RPC into the rolling window (and evict entries
  /// older than kScrapeWindowMs).
  void record_window_rpc(std::int64_t now_ns, std::int64_t rpc_ns);

  tcp::Fd listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread thread_;

  mutable std::mutex mutex_;
  ServerLogic logic_;
  // Resolved on the constructing thread; the serving thread only updates
  // the (atomic) instruments through these pointers.
  obs::Counter* obs_work_messages_ =
      obs::maybe_counter("grid.server.messages", {{"type", "work"}});
  obs::Counter* obs_submit_messages_ =
      obs::maybe_counter("grid.server.messages", {{"type", "submit"}});
  obs::Counter* obs_stats_messages_ =
      obs::maybe_counter("grid.server.messages", {{"type", "stats"}});
  obs::Counter* obs_scrape_messages_ =
      obs::maybe_counter("grid.server.messages", {{"type", "scrape"}});
  obs::Counter* obs_malformed_messages_ =
      obs::maybe_counter("grid.server.messages", {{"type", "malformed"}});
  obs::Counter* obs_reissues_ = obs::maybe_counter("grid.server.reissues");
  // Wall-clock RPC service time per message type (read -> reply written),
  // the server-side latency the 64-client soak snapshots p50/p90/p99 of.
  obs::Histogram* obs_rpc_ns_work_ = obs::maybe_histogram(
      "grid.server.rpc_ns", obs::rpc_server_ns_buckets(), {{"type", "work"}});
  obs::Histogram* obs_rpc_ns_submit_ = obs::maybe_histogram(
      "grid.server.rpc_ns", obs::rpc_server_ns_buckets(),
      {{"type", "submit"}});
  obs::Histogram* obs_rpc_ns_stats_ = obs::maybe_histogram(
      "grid.server.rpc_ns", obs::rpc_server_ns_buckets(),
      {{"type", "stats"}});
  obs::Histogram* obs_rpc_ns_malformed_ = obs::maybe_histogram(
      "grid.server.rpc_ns", obs::rpc_server_ns_buckets(),
      {{"type", "malformed"}});
  obs::Histogram* obs_rpc_ns_scrape_ = obs::maybe_histogram(
      "grid.server.rpc_ns", obs::rpc_server_ns_buckets(),
      {{"type", "scrape"}});
  // SCRAPE snapshots the constructing thread's registry: resolved here,
  // read by the serve thread (the Registry's own mutex makes the
  // snapshot safe against concurrent instrument updates).
  obs::Registry* obs_registry_ = obs::current();
  // Rolling RPC service-time window the SCRAPE summary is computed from:
  // (completion wall-ns, service-ns) pairs, trimmed to kScrapeWindowMs.
  mutable std::mutex window_mutex_;
  std::deque<std::pair<std::int64_t, std::int64_t>> rpc_window_;
  // The serve thread's sinks: a one-task fork of the constructing thread's
  // profiler (thread-confined) and journal (ServerLogic's EVT_* appends run
  // on the serve thread). stop() merges it after the join. Instruments are
  // resolved above on the constructing thread and SCRAPE reads that
  // registry live, so the fork carries no registry.
  obs::FanOut serve_sinks_{obs::Context{.profiler = obs::context().profiler,
                                        .event_log = obs::context().event_log},
                           1};
};

}  // namespace vgrid::grid
