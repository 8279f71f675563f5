#include "grid/server.hpp"

#include <sys/socket.h>
#include <sys/time.h>

#include <algorithm>
#include <vector>

#include "obs/profiler.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace vgrid::grid {

ProjectServer::ProjectServer(std::uint16_t port) {
  listener_ = tcp::listen_loopback(port, &port_);
  // Accept timeout so the serving thread notices stop() promptly.
  timeval tv{};
  tv.tv_usec = 50'000;
  ::setsockopt(listener_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  running_.store(true);
  thread_ = std::thread([this] { serve(); });
}

ProjectServer::~ProjectServer() { stop(); }

void ProjectServer::stop() {
  if (!running_.exchange(false)) return;
  if (thread_.joinable()) thread_.join();
  listener_.close();
  // The serve thread has joined; folding its sinks is now race-free.
  serve_sinks_.merge();
}

WorkunitId ProjectServer::add_workunit(Workunit workunit) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return logic_.add_workunit(std::move(workunit));
}

void ProjectServer::set_generator(Generator generator) {
  const std::lock_guard<std::mutex> lock(mutex_);
  logic_.set_generator(std::move(generator));
}

ServerStats ProjectServer::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return logic_.stats();
}

std::optional<std::string> ProjectServer::canonical_result(
    WorkunitId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return logic_.canonical_result(id);
}

std::optional<WorkunitState> ProjectServer::workunit_state(
    WorkunitId id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return logic_.workunit_state(id);
}

WorkResponse ProjectServer::next_work(const WorkRequest& request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Time enters the protocol core only here: the transport stamps the
  // request with the monotonic clock, so ServerLogic itself stays pure
  // (the model checker drives the same code on a logical clock).
  const std::uint64_t reissued_before = logic_.stats().instances_reissued;
  WorkResponse response =
      logic_.next_work(request, util::monotonic_time_ns());
  const std::uint64_t reissued =
      logic_.stats().instances_reissued - reissued_before;
  if (obs_reissues_ && reissued > 0) obs_reissues_->add(reissued);
  return response;
}

SubmitResponse ProjectServer::accept_result(const SubmitRequest& request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return logic_.accept_result(request);
}

StatsResponse ProjectServer::client_account(
    const std::string& client_id) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return logic_.client_account(client_id);
}

void ProjectServer::record_window_rpc(std::int64_t now_ns,
                                      std::int64_t rpc_ns) {
  const std::lock_guard<std::mutex> lock(window_mutex_);
  rpc_window_.emplace_back(now_ns, rpc_ns);
  const std::int64_t horizon = now_ns - kScrapeWindowMs * 1'000'000;
  while (!rpc_window_.empty() && rpc_window_.front().first < horizon) {
    rpc_window_.pop_front();
  }
}

ScrapeResponse ProjectServer::scrape_snapshot() const {
  ScrapeResponse response;
  response.window_ms = kScrapeWindowMs;
  std::vector<std::int64_t> service_ns;
  {
    const std::lock_guard<std::mutex> lock(window_mutex_);
    const std::int64_t horizon =
        util::monotonic_time_ns() - kScrapeWindowMs * 1'000'000;
    service_ns.reserve(rpc_window_.size());
    for (const auto& [t_ns, rpc_ns] : rpc_window_) {
      if (t_ns >= horizon) service_ns.push_back(rpc_ns);
    }
  }
  response.rpc_count = service_ns.size();
  if (!service_ns.empty()) {
    std::sort(service_ns.begin(), service_ns.end());
    // Nearest-rank percentiles, matching obs::Histogram::percentile.
    const auto rank = [&](double q) {
      const std::size_t index = static_cast<std::size_t>(
          q * static_cast<double>(service_ns.size() - 1) + 0.5);
      return service_ns[std::min(index, service_ns.size() - 1)];
    };
    response.rpc_p50_ns = rank(0.50);
    response.rpc_p99_ns = rank(0.99);
  }
  if (obs_registry_ != nullptr) {
    // vgrid-lint: allow(obs-timeseries-gateway): the SCRAPE RPC is the
    // live (wall-clock) scrape surface; its exposition never feeds the
    // deterministic exports, so it bypasses obs::Timeseries by design.
    response.prometheus_text = obs_registry_->snapshot_prometheus();
  }
  return response;
}

void ProjectServer::handle_connection(int fd) {
  PROF_SCOPE("grid.server.handle_connection");
  std::string line;
  if (!tcp::read_line(fd, line)) return;
  // Service time per message type: request parsed -> reply written. Every
  // RPC also lands in the rolling window the SCRAPE summary reads.
  const std::int64_t start_ns = util::monotonic_time_ns();
  const auto observe_rpc = [this, start_ns](obs::Histogram* histogram) {
    const std::int64_t now_ns = util::monotonic_time_ns();
    if (histogram) histogram->observe(now_ns - start_ns);
    record_window_rpc(now_ns, now_ns - start_ns);
  };
  const std::string tag = request_tag(line);
  if (tag == "WORK") {
    if (const auto request = parse_work_request(line)) {
      if (obs_work_messages_) obs_work_messages_->add();
      tcp::write_line(fd, serialize(next_work(*request)));
      observe_rpc(obs_rpc_ns_work_);
      return;
    }
  } else if (tag == "SUBMIT") {
    if (const auto request = parse_submit_request(line)) {
      if (obs_submit_messages_) obs_submit_messages_->add();
      tcp::write_line(fd, serialize(accept_result(*request)));
      observe_rpc(obs_rpc_ns_submit_);
      return;
    }
  } else if (tag == "STATS") {
    if (const auto request = parse_stats_request(line)) {
      if (obs_stats_messages_) obs_stats_messages_->add();
      tcp::write_line(fd, serialize(client_account(request->client_id)));
      observe_rpc(obs_rpc_ns_stats_);
      return;
    }
  } else if (tag == "SCRAPE") {
    if (parse_scrape_request(line)) {
      if (obs_scrape_messages_) obs_scrape_messages_->add();
      tcp::write_line(fd, serialize(scrape_snapshot()));
      observe_rpc(obs_rpc_ns_scrape_);
      return;
    }
  }
  if (obs_malformed_messages_) obs_malformed_messages_->add();
  tcp::write_line(fd, "ERR|bad request");
  observe_rpc(obs_rpc_ns_malformed_);
}

void ProjectServer::serve() {
  const obs::ScopedContext scope = serve_sinks_.install(0);
  while (running_.load(std::memory_order_relaxed)) {
    const int conn = ::accept(listener_.get(), nullptr, nullptr);
    if (conn < 0) continue;  // timeout or transient error
    tcp::Fd scoped(conn);
    handle_connection(scoped.get());
  }
}

}  // namespace vgrid::grid
