// Workload `grid-closed-loop`: one grid::ProjectServer on loopback and
// three grid::GridClient threads, each in a closed loop of fetch (WORK),
// execute an echo app, and submit (SUBMIT), with replication 2 and quorum
// 2. It is the only workload on real sockets, the grid/messages codec and
// grid::ServerLogic, and it puts writes (SUBMIT) beside reads (WORK).
//
// One operation is a round: a fresh server, a warm-up of kWarmupWorkunits,
// then kWorkunits timed. The count is fixed because server cost grows with
// history: every WORK request scans every workunit the server ever
// tracked, and validated ones are never erased.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "grid/client.hpp"
#include "grid/messages.hpp"
#include "grid/server.hpp"
#include "grid/server_logic.hpp"
#include "obs/event_log.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace vgrid::perfbench {
namespace {

constexpr int kClients = 3;
constexpr std::uint64_t kWarmupWorkunits = 300;
constexpr std::uint64_t kWorkunits = 2000;
constexpr int kReplication = 2;
constexpr int kQuorum = 2;

/// Echo payloads drawn from the seed, in the two forms the repo's grid
/// callers send: `payload-N` (the grid stress test) and `seed=N` (the
/// volunteer-node example), with N a 32-bit number.
std::vector<std::string> make_payloads(std::uint64_t seed, std::size_t count) {
  util::Xoshiro256 rng(seed);
  std::vector<std::string> payloads(count);
  for (std::string& payload : payloads) {
    const bool stress_form = rng.uniform_int(0, 1) == 0;
    const auto n = static_cast<unsigned long long>(
        rng.uniform_int(0, std::numeric_limits<std::uint32_t>::max()));
    payload = util::format(stress_form ? "payload-%llu" : "seed=%llu", n);
  }
  return payloads;
}

/// One scheduler RPC as the client saw it.
struct Rpc {
  int client = 0;
  bool submit = false;
  bool timed = false;  ///< false during the round's warm-up
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// What one client thread saw in one phase.
struct ClientLog {
  std::vector<Rpc> rpcs;
  std::vector<std::string> payloads;  ///< workunits received, in order
  std::int64_t exec_start = 0;
  std::int64_t exec_end = 0;
  std::string error;  ///< first exception, if an RPC threw
};

struct Round {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<Rpc> rpcs;  ///< all phases, all clients, by completion time
  std::vector<std::string> payloads;  ///< every workunit a client received
  std::vector<std::string> client_ids;
  std::unique_ptr<obs::Registry> registry;  ///< traced rounds only
};

/// Run the clients until each has been told NO_WORK once. The executor
/// brackets the echo with timestamps, which splits each run_once() into
/// the WORK round trip before it and the SUBMIT round trip after it.
void run_phase(std::vector<std::unique_ptr<grid::GridClient>>& clients,
               std::vector<ClientLog>& logs, bool timed, SpanRecorder* spans,
               std::uint64_t parent, std::uint64_t run) {
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      grid::GridClient& client = *clients[static_cast<std::size_t>(c)];
      ScopedSpan loop_span(spans, timed ? "grid.client_loop" : "grid.warmup_loop",
                           parent, run);
      while (true) {
        log.exec_start = 0;
        const std::int64_t start = now_ns();
        bool more = false;
        try {
          ScopedSpan span(spans, "grid.run_once", loop_span.id(), run);
          more = client.run_once();
        } catch (const std::exception& error) {
          log.error = error.what();
          return;
        }
        const std::int64_t end = now_ns();
        if (log.exec_start != 0) {
          log.rpcs.push_back({c, false, timed, start, log.exec_start});
          log.rpcs.push_back({c, true, timed, log.exec_end, end});
        } else {
          log.rpcs.push_back({c, false, timed, start, end});
        }
        if (!more) return;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
}

Round run_round(const std::vector<std::string>& payloads, bool traced,
                bool journal, SpanRecorder* spans, std::uint64_t run,
                Report& report) {
  Round round;
  std::unique_ptr<obs::EventLog> event_log;
  if (traced) {
    round.registry = std::make_unique<obs::Registry>();
    obs::register_defaults(*round.registry);
  }
  if (journal) event_log = std::make_unique<obs::EventLog>();
  // The server and the clients resolve their obs handles and journal from
  // the constructing thread.
  obs::ScopedRegistry registry_scope(round.registry.get());
  obs::ScopedEventLog journal_scope(event_log.get());

  ScopedSpan round_span(spans, "grid.round", 0, run);
  const std::int64_t setup_start = now_ns();
  std::atomic<std::uint64_t> remaining{kWarmupWorkunits};
  std::size_t next_payload = 0;
  std::unique_ptr<grid::ProjectServer> server;
  std::vector<std::unique_ptr<grid::GridClient>> clients;
  std::vector<ClientLog> logs(kClients);
  {
    ScopedSpan span(spans, "grid.server_construct", round_span.id(), run);
    server = std::make_unique<grid::ProjectServer>(0);
    // Runs on the serve thread under the server's mutex.
    server->set_generator([&](grid::Workunit& wu) {
      if (remaining.load() == 0 || next_payload >= payloads.size()) {
        return false;
      }
      remaining.fetch_sub(1);
      wu.kind = "echo";
      wu.payload = payloads[next_payload++];
      wu.replication = kReplication;
      wu.quorum = kQuorum;
      return true;
    });
    for (int c = 0; c < kClients; ++c) {
      round.client_ids.push_back("client-" + std::to_string(c));
      clients.push_back(std::make_unique<grid::GridClient>(
          server->port(), round.client_ids.back()));
      ClientLog& log = logs[static_cast<std::size_t>(c)];
      clients.back()->register_app("echo", [&log](const std::string& payload) {
        log.exec_start = now_ns();
        log.payloads.push_back(payload);
        std::string output = payload;
        log.exec_end = now_ns();
        return output;
      });
    }
  }
  run_phase(clients, logs, false, spans, round_span.id(), run);
  round.setup_s = static_cast<double>(now_ns() - setup_start) / 1e9;

  remaining.store(kWorkunits);
  const std::int64_t timed_start = now_ns();
  run_phase(clients, logs, true, spans, round_span.id(), run);
  round.wall_s = static_cast<double>(now_ns() - timed_start) / 1e9;

  // Output checks over the whole round (warm-up + timed workunits).
  const std::uint64_t total = kWarmupWorkunits + kWorkunits;
  for (const ClientLog& log : logs) {
    report.add_attempts(log.rpcs.size());
    if (!log.error.empty()) report.fail("grid RPC threw: " + log.error);
    round.rpcs.insert(round.rpcs.end(), log.rpcs.begin(), log.rpcs.end());
    round.payloads.insert(round.payloads.end(), log.payloads.begin(),
                          log.payloads.end());
  }
  std::sort(round.rpcs.begin(), round.rpcs.end(),
            [](const Rpc& a, const Rpc& b) { return a.end_ns < b.end_ns; });
  const grid::ServerStats stats = server->stats();
  report.check(stats.workunits_validated == total,
               std::to_string(stats.workunits_validated) + " of " +
                   std::to_string(total) + " workunits validated");
  report.check(stats.workunits_invalid == 0,
               std::to_string(stats.workunits_invalid) + " workunits invalid");
  report.check(stats.results_received == 2 * stats.workunits_validated,
               std::to_string(stats.results_received) + " results for " +
                   std::to_string(stats.workunits_validated) + " validated");
  double credit = 0.0;
  for (int c = 0; c < kClients; ++c) {
    credit += server->client_account(round.client_ids[c]).credit;
    report.check(clients[static_cast<std::size_t>(c)]->stats().rejected_results == 0,
                 round.client_ids[c] + " had results rejected");
  }
  report.check(std::fabs(credit - stats.total_cpu_seconds) <=
                   1e-9 * std::max(1.0, stats.total_cpu_seconds),
               "granted credit " + std::to_string(credit) +
                   " != total cpu " + std::to_string(stats.total_cpu_seconds));
  bool echoed = true;
  for (std::uint64_t id = 1; id <= total; ++id) {
    const auto canonical = server->canonical_result(id);
    echoed = echoed && canonical && *canonical == payloads[id - 1];
  }
  report.check(echoed, "a canonical result is not its workunit's payload");
  {
    ScopedSpan span(spans, "grid.server_stop", round_span.id(), run);
    server->stop();
  }
  return round;
}

double latency_us(const Rpc& rpc) {
  return static_cast<double>(rpc.end_ns - rpc.start_ns) / 1e3;
}

std::vector<double> timed_latencies_us(const Round& round) {
  std::vector<double> out;
  for (const Rpc& rpc : round.rpcs) {
    if (rpc.timed) out.push_back(latency_us(rpc));
  }
  return out;
}

/// p50 of the last tenth of a round's timed RPCs over p50 of the first
/// tenth, in the order they were sent.
double p50_drift(const Round& round) {
  std::vector<Rpc> timed;
  for (const Rpc& rpc : round.rpcs) {
    if (rpc.timed) timed.push_back(rpc);
  }
  std::sort(timed.begin(), timed.end(), [](const Rpc& a, const Rpc& b) {
    return a.start_ns < b.start_ns;
  });
  const std::size_t tenth = timed.size() / 10;
  if (tenth == 0) return 0.0;
  std::vector<double> head;
  std::vector<double> tail;
  for (std::size_t i = 0; i < tenth; ++i) {
    head.push_back(latency_us(timed[i]));
    tail.push_back(latency_us(timed[timed.size() - 1 - i]));
  }
  return median(tail) / median(head);
}

/// serialize + parse of every message the round put on the wire, in
/// nanoseconds per message.
double codec_ns_per_msg(const Round& round) {
  std::size_t messages = 0;
  std::size_t parsed = 0;
  const std::int64_t start = now_ns();
  grid::WorkunitId id = 1;
  for (const std::string& payload : round.payloads) {
    const grid::WorkRequest request{round.client_ids[id % kClients]};
    const grid::WorkResponse response{
        true, grid::Workunit{id, "echo", payload, kReplication, kQuorum, 0.0}};
    const grid::SubmitRequest submit{
        grid::Result{id, request.client_id, payload, 1e-6}};
    const grid::SubmitResponse ack{true, id % 2 == 0};
    parsed += grid::parse_work_request(grid::serialize(request)).has_value();
    parsed += grid::parse_work_response(grid::serialize(response)).has_value();
    parsed += grid::parse_submit_request(grid::serialize(submit)).has_value();
    parsed += grid::parse_submit_response(grid::serialize(ack)).has_value();
    messages += 4;
    ++id;
  }
  const auto elapsed = static_cast<double>(now_ns() - start);
  if (parsed != messages) {
    throw std::runtime_error("codec replay: a message failed to parse");
  }
  return messages ? elapsed / static_cast<double>(messages) : 0.0;
}

/// Replay the round's request sequence (by completion order) through a
/// socket-free grid::ServerLogic, in nanoseconds per RPC.
double logic_ns_per_rpc(const Round& round,
                        const std::vector<std::string>& payloads) {
  grid::ServerLogic logic;
  std::size_t next_payload = 0;
  const std::size_t total = kWarmupWorkunits + kWorkunits;
  logic.set_generator([&](grid::Workunit& wu) {
    if (next_payload >= total) return false;
    wu.kind = "echo";
    wu.payload = payloads[next_payload++];
    wu.replication = kReplication;
    wu.quorum = kQuorum;
    return true;
  });
  std::vector<grid::WorkResponse> held(kClients);
  const std::int64_t start = now_ns();
  for (const Rpc& rpc : round.rpcs) {
    const std::string& client = round.client_ids[rpc.client];
    grid::WorkResponse& work = held[static_cast<std::size_t>(rpc.client)];
    if (!rpc.submit) {
      work = logic.next_work(grid::WorkRequest{client}, rpc.start_ns);
    } else if (work.has_work) {
      logic.accept_result(grid::SubmitRequest{grid::Result{
          work.workunit.id, client, work.workunit.payload, 1e-6}});
      work.has_work = false;
    }
  }
  const auto elapsed = static_cast<double>(now_ns() - start);
  return round.rpcs.empty() ? 0.0
                            : elapsed / static_cast<double>(round.rpcs.size());
}

}  // namespace

void run_grid_closed_loop(const Options& options, Report& report) {
  const std::vector<std::string> payloads =
      make_payloads(options.seed, kWarmupWorkunits + kWorkunits);

  // Rounds. The traced run rotates three variants: untraced, traced
  // (obs::Registry installed, the benchmark's spans), and untraced with an
  // obs::EventLog installed (the server journals every workunit).
  enum Variant { kPlain, kTraced, kJournal };
  const int variants = options.trace ? 3 : 1;
  SpanRecorder spans;
  std::vector<double> setup_s;
  std::vector<double> wall[3];
  std::vector<double> p50_us;
  std::vector<double> p99_us;
  std::vector<double> drift;
  std::size_t work_rpcs = 0;
  std::size_t rpcs = 0;
  std::size_t plain_rounds = 0;
  Round first_plain;
  bool have_plain = false;
  std::unique_ptr<obs::Registry> first_registry;
  const std::int64_t loop_start = now_ns();
  for (std::uint64_t n = 0;; ++n) {
    const auto variant = static_cast<Variant>(n % variants);
    const double elapsed = static_cast<double>(now_ns() - loop_start) / 1e9;
    if (elapsed >= options.seconds && n >= 3u * variants && variant == 0) {
      break;
    }
    Round round = run_round(payloads, variant == kTraced, variant == kJournal,
                            variant == kTraced ? &spans : nullptr, n, report);
    wall[variant].push_back(round.wall_s);
    if (variant == kTraced && !first_registry) {
      first_registry = std::move(round.registry);
    }
    if (variant != kPlain) continue;
    ++plain_rounds;
    setup_s.push_back(round.setup_s);
    const std::vector<double> timed = timed_latencies_us(round);
    rpcs += timed.size();
    p50_us.push_back(median(timed));
    p99_us.push_back(quantile(timed, 0.99));
    for (const Rpc& rpc : round.rpcs) {
      work_rpcs += rpc.timed && !rpc.submit;
    }
    drift.push_back(p50_drift(round));
    if (!have_plain) {
      first_plain = std::move(round);
      have_plain = true;
    }
  }

  std::vector<double> rate;
  for (const double s : wall[kPlain]) {
    rate.push_back(static_cast<double>(kWorkunits) / s);
  }
  // Latency percentiles are taken per round (each has ~4 x kWorkunits
  // RPCs, so ~80 lie beyond its p99) and reported as medians over rounds.
  const double rpc_p50_us = median(p50_us);
  const double rpc_p99_us = median(p99_us);
  if (!options.trace) {
    report.metric("setup_s", median(setup_s), "s", setup_s.size());
    report.metric("throughput_per_s", median(rate), "1/s", rate.size());
    report.metric("op_p50_ms", rpc_p50_us / 1e3, "ms", rpcs);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.note("workunits_per_s", median(rate), "1/s", rate.size());
    report.note("rpc_p50_us", rpc_p50_us, "us", rpcs);
    report.note("rpc_p99_us", rpc_p99_us, "us", rpcs);
    return;
  }

  const obs::Registry& r = *first_registry;
  const double server_p50_us =
      histogram_quantile(r, "grid.server.rpc_ns", 0.5) / 1e3;
  const double server_p99_us =
      histogram_quantile(r, "grid.server.rpc_ns", 0.99) / 1e3;
  const double plain_s = median(wall[kPlain]);
  report.metric("obs.journal_overhead", median(wall[kJournal]) / plain_s,
                "ratio", wall[kJournal].size());
  report.metric("obs.tracing_overhead",
                (median(wall[kTraced]) - plain_s) * 1e3, "ms",
                wall[kTraced].size());
  report.metric("grid.rpc_p99_us", rpc_p99_us, "us", rpcs);
  report.metric("grid.server_service_p50_us", server_p50_us, "us", 1);
  report.metric("grid.server_service_p99_us", server_p99_us, "us", 1);
  report.metric("grid.transport_wait_us", rpc_p50_us - server_p50_us, "us",
                rpcs);
  report.metric("grid.codec_ns_per_msg", codec_ns_per_msg(first_plain), "ns",
                4 * first_plain.payloads.size());
  report.metric("grid.logic_ns_per_rpc",
                logic_ns_per_rpc(first_plain, payloads), "ns",
                first_plain.rpcs.size());
  report.metric("grid.work_rpcs_per_validated",
                static_cast<double>(work_rpcs) /
                    static_cast<double>(kWorkunits * plain_rounds),
                "ratio",
                plain_rounds);
  report.metric("grid.rpc_p50_drift", median(drift), "ratio", drift.size());
  if (!options.trace_out.empty()) {
    write_trace(options.trace_out, options, spans.spans(),
                r.snapshot_json(), {});
  }
}

}  // namespace vgrid::perfbench
