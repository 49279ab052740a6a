// plan_server: the store-aware planning service behind a line-oriented
// protocol — one request per line, one JSON response per line — served
// either over stdin/stdout (the default; pipelines, debugging) or as a
// real socket server (`--port`, src/net/socket_server.hpp: poll event
// loop, many concurrent connections, worker pool). The process is the
// unit of deployment: point it at a trace-store directory (shared with
// CI jobs, benches or other servers) and every scenario is captured at
// most once across all of them; repeat plans are pure store-replay and
// return in milliseconds, and CONCURRENT near-identical requests merge
// into one union-grid replay sweep (svc sweep coalescing) — which is
// exactly why the socket front end matters: concurrent connections are
// what puts concurrent requests in flight.
//
//   $ ./example_plan_server --trace-dir traces --port 0 --port-file p.txt
//   $ nc 127.0.0.1 $(cat p.txt)
//   plan mpeg2-tiny grid=1,2,4,8 runs=2 l2=32768 eps=0.01
//   {"ok": true, "scenario": "mpeg2-tiny", ... "sweep": "leader", ...}
//
// WIRE PROTOCOL (identical on stdin and socket; newline-delimited,
// UTF-8, one request line -> exactly one response line, responses always
// in request order per connection):
//
//   plan <scenario> [grid=a,b,c] [runs=N] [l2=BYTES] [eps=X]
//                   [deadline_ms=MS] [phases=all]
//       -> {"ok": true, "scenario": ..., "sweep": "leader|coalesced|
//           cache", "union_points": N, "plan_digest": "...", ...}
//       Each option may appear AT MOST ONCE (repeats are request
//       errors); eps must be finite and >= 0 (omit for auto-tune).
//       phases=all plans every phase of a streaming scenario; the
//       response then carries a "phases" array of per-phase responses
//       (each with its own plan_digest) instead of a single assignment.
//       deadline_ms is an ADMISSION deadline: if the request is still
//       queued when it expires, the server answers
//       {"ok": false, "error": "error deadline expired in queue"}
//       without planning; once started, a request always completes.
//   scenarios          list registered scenarios: name, description and
//                      phase count (0 = classic fixed-mix scenario)
//   stats              service + store + plan-cache (+ net) counters
//   gc                 enforce the store + plan-cache budgets now
//   quit | exit        stdin mode: leave (EOF works too). Socket mode:
//                      close the connection instead; quit is an error.
//
//   Error lines are {"ok": false, "error": "..."} — including the two
//   transport-level ones every client must expect under load:
//     {"ok": false, "error": "error busy (queue full, retry)"}   (shed)
//     {"ok": false, "error": "error deadline expired in queue"}
//   A socket request line over 64 KiB is answered with
//     {"ok": false, "error": "error line too long"}
//   and the connection closes once every earlier answer is flushed.
//
// Flags: --trace-dir D             store directory (default plan_server.traces)
//        --trace off|ro|rw         store mode (off is rejected; default rw)
//        --store-l2-dir D          far store tier: --trace-dir becomes the
//                                  L1 of a tiered store that reads through
//                                  to D (captures AND .cmsplan entries)
//        --store-l2 off|ro|rw      far-tier mode (default rw: write
//                                  through; ro serves a frozen shared dir)
//        --jobs N                  campaign workers per request
//        --service-budget-bytes N  store byte budget (0 = unlimited)
//        --service-budget-entries N  store entry budget (0 = unlimited)
//        --plan-cache off|mem|disk memoized plan cache (default disk:
//                                  .cmsplan entries next to the captures)
//        --plan-cache-budget-bytes N    per-tier cache byte budget, in
//                                       encoded entry bytes (~1.3 KB per
//                                       memoized mpeg2-tiny plan)
//        --plan-cache-budget-entries N  per-tier cache entry budget
//        --coalesce-window-ms X    hold every union sweep open X ms so
//                                  concurrent bursts are guaranteed to
//                                  merge (costs X ms of extra latency
//                                  per cache-missing sweep leader)
//   Socket mode (the flag's presence selects it):
//        --port N                  listen on 127.0.0.1:N (0 = ephemeral)
//        --port-file PATH          write the resolved port here (the
//                                  rendezvous for --port 0)
//        --net-workers N           worker threads = max requests in
//                                  flight (size >= expected bursts so
//                                  they coalesce; default 8)
//        --max-pending N           admission queue bound; beyond it
//                                  requests shed with the busy error
//   SIGTERM/SIGINT drain gracefully: stop accepting + reading, finish
//   every admitted request, flush every byte, then exit 0.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "net/socket_server.hpp"
#include "svc/plan_protocol.hpp"
#include "svc/planning_service.hpp"

using namespace cms;
using svc::error_json;
using svc::format;
using svc::json_escape;

namespace {

std::string scenarios_json() {
  // One registry lock for the whole listing (ScenarioRegistry::list), not
  // a get() per name. phases > 0 marks a streaming scenario (plannable
  // per phase via `plan <name> phases=all`).
  const std::vector<core::ScenarioInfo> rows = core::scenarios().list();
  std::string out = "{\"ok\": true, \"scenarios\": [";
  for (std::size_t i = 0; i < rows.size(); ++i)
    out += format(
        "%s{\"name\": \"%s\", \"description\": \"%s\", \"phases\": %llu}",
        i ? ", " : "", json_escape(rows[i].name).c_str(),
        json_escape(rows[i].description).c_str(),
        static_cast<unsigned long long>(rows[i].phase_count));
  out += "]}";
  return out;
}

std::string stats_json(const svc::PlanningService& service,
                       const net::SocketServer* server) {
  const svc::ServiceStats ss = service.service_stats();
  const opt::TraceStore::Stats st = service.store_stats();
  const opt::PlanCache::Stats pc = service.plan_cache_stats();
  std::string out = format(
      "{\"ok\": true, \"service\": {\"requests\": %llu, \"captured\": "
      "%llu, \"deferred\": %llu, \"store_hits\": %llu, "
      "\"coalesced\": %llu, \"plan_cache_hits\": %llu, "
      "\"sweeps_started\": %llu, \"sweeps_coalesced\": %llu, "
      "\"union_points_saved\": %llu, \"sweeps_sealed_early\": %llu}, "
      "\"store\": {\"hits\": %llu, \"misses\": %llu, \"writes\": %llu, "
      "\"evictions\": %llu, \"entries\": %llu, \"bytes\": %llu, "
      "\"pinned\": %llu%s}, "
      "\"plan_cache\": {\"hits\": %llu, \"misses\": %llu, "
      "\"inserts\": %llu, \"mem_hits\": %llu, \"disk_hits\": %llu, "
      "\"disk_writes\": %llu, \"evictions\": %llu, "
      "\"mem_evictions\": %llu, \"mem_evicted_bytes\": %llu, "
      "\"disk_evictions\": %llu, \"disk_evicted_bytes\": %llu, "
      "\"entries\": %llu, \"bytes\": %llu, \"disk_entries\": %llu, "
      "\"disk_bytes\": %llu%s}",
      static_cast<unsigned long long>(ss.requests),
      static_cast<unsigned long long>(ss.captured),
      static_cast<unsigned long long>(ss.deferred),
      static_cast<unsigned long long>(ss.store_hits),
      static_cast<unsigned long long>(ss.coalesced),
      static_cast<unsigned long long>(ss.plan_cache_hits),
      static_cast<unsigned long long>(ss.sweeps_started),
      static_cast<unsigned long long>(ss.sweeps_coalesced),
      static_cast<unsigned long long>(ss.union_points_saved),
      static_cast<unsigned long long>(ss.sweeps_sealed_early),
      static_cast<unsigned long long>(st.hits),
      static_cast<unsigned long long>(st.misses),
      static_cast<unsigned long long>(st.writes),
      static_cast<unsigned long long>(st.evictions),
      static_cast<unsigned long long>(st.entries),
      static_cast<unsigned long long>(st.bytes),
      static_cast<unsigned long long>(st.pinned),
      opt::tier_counters_json(st.tiers).c_str(),
      static_cast<unsigned long long>(pc.hits),
      static_cast<unsigned long long>(pc.misses),
      static_cast<unsigned long long>(pc.inserts),
      static_cast<unsigned long long>(pc.mem_hits),
      static_cast<unsigned long long>(pc.disk_hits),
      static_cast<unsigned long long>(pc.disk_writes),
      static_cast<unsigned long long>(pc.evictions),
      static_cast<unsigned long long>(pc.mem_evictions),
      static_cast<unsigned long long>(pc.mem_evicted_bytes),
      static_cast<unsigned long long>(pc.disk_evictions),
      static_cast<unsigned long long>(pc.disk_evicted_bytes),
      static_cast<unsigned long long>(pc.entries),
      static_cast<unsigned long long>(pc.bytes),
      static_cast<unsigned long long>(pc.disk_entries),
      static_cast<unsigned long long>(pc.disk_bytes),
      opt::tier_counters_json(pc.tiers).c_str());
  if (server != nullptr) {
    const net::SocketServer::Stats ns = server->stats();
    out += format(
        ", \"net\": {\"accepted\": %llu, \"requests\": %llu, "
        "\"served\": %llu, \"shed\": %llu, \"deadline_expired\": %llu, "
        "\"closed_overlong\": %llu, \"closed_slow\": %llu}",
        static_cast<unsigned long long>(ns.accepted),
        static_cast<unsigned long long>(ns.requests),
        static_cast<unsigned long long>(ns.served),
        static_cast<unsigned long long>(ns.shed),
        static_cast<unsigned long long>(ns.deadline_expired),
        static_cast<unsigned long long>(ns.closed_protocol),
        static_cast<unsigned long long>(ns.closed_slow));
  }
  out += "}";
  return out;
}

std::string gc_json(svc::PlanningService& service) {
  const opt::TraceStore::GcResult gr = service.gc();
  return format("{\"ok\": true, \"evicted_entries\": %llu, "
                "\"evicted_bytes\": %llu}",
                static_cast<unsigned long long>(gr.evicted_entries),
                static_cast<unsigned long long>(gr.evicted_bytes));
}

/// One protocol request -> one response line (without newline). Shared
/// verbatim by the stdin loop and the socket worker pool ("quit" never
/// reaches here). Thread-safe: every service entry point it touches is.
std::string handle_line(svc::PlanningService& service,
                        const net::SocketServer* server,
                        const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd)) return {};  // blank line (stdin loop skips these)
  if (cmd == "scenarios") return scenarios_json();
  if (cmd == "stats") return stats_json(service, server);
  if (cmd == "gc") return gc_json(service);
  if (cmd == "plan") {
    svc::PlanRequest req;
    std::string operands, err;
    std::getline(in, operands);  // everything after the command word
    if (!svc::parse_plan_request(operands, req, err)) return error_json(err);
    return svc::plan_response_json(service.plan(req));
  }
  if (cmd == "quit" || cmd == "exit")
    return error_json("quit is stdin-only; close the connection instead");
  return svc::unknown_command_json(cmd);
}

net::SocketServer* g_server = nullptr;  // SIGTERM/SIGINT -> graceful drain

void on_signal(int) {
  if (g_server != nullptr) g_server->shutdown();  // async-signal-safe
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = core::parse_jobs(argc, argv, 1);
  std::string dir = core::parse_trace_dir(argc, argv);
  if (dir.empty()) dir = "plan_server.traces";
  const core::TraceMode mode = core::parse_trace_mode(argc, argv);
  if (mode == core::TraceMode::kOff) {
    std::fprintf(stderr, "plan_server needs a store (--trace=off?)\n");
    return 1;
  }
  const std::string l2_target = core::parse_store_l2_target(argc, argv);
  const core::StoreL2Mode l2 = core::parse_store_l2(argc, argv);
  const opt::TraceStore::Capacity capacity{
      core::parse_u64_flag(argc, argv, "--service-budget-bytes"),
      core::parse_u64_flag(argc, argv, "--service-budget-entries")};
  const core::PlanCacheMode cache_mode = core::parse_plan_cache(argc, argv);
  const opt::TraceStore::Capacity cache_budget{
      core::parse_u64_flag(argc, argv, "--plan-cache-budget-bytes"),
      core::parse_u64_flag(argc, argv, "--plan-cache-budget-entries")};
  const double coalesce_window_ms = core::parse_coalesce_window_ms(argc, argv);
  const bool socket_mode = core::has_value_flag(argc, argv, "--port");
  const std::uint16_t port = core::parse_port(argc, argv);
  const std::string port_file =
      core::parse_string_flag(argc, argv, "--port-file");
  const unsigned workers = core::parse_net_workers(argc, argv);
  const std::size_t max_pending = core::parse_max_pending(argc, argv);
  core::warn_unknown_flags(argc, argv);

  // ONE backend (dir, or tiered dir-over-dir) shared by the trace store
  // and the plan cache's disk tier, so both kinds of blob ride the same
  // L1/L2 tiering and the same far directory.
  const std::shared_ptr<opt::StoreBackend> backend =
      core::open_store_backend(dir, mode, l2_target, l2);
  svc::PlanningServiceConfig svc_cfg;
  svc_cfg.store = svc::open_service_store(backend, mode, capacity);
  svc_cfg.jobs = jobs;
  svc_cfg.plan_cache =
      svc::open_plan_cache(cache_mode, backend, mode, cache_budget);
  svc_cfg.coalesce_window_ms = coalesce_window_ms;
  svc::PlanningService service(std::move(svc_cfg));
  std::fprintf(stderr,
               "plan_server ready: store %s (budget %llu bytes / %llu "
               "entries), plan cache %s, %u worker%s per request\n",
               backend->describe().c_str(),
               static_cast<unsigned long long>(capacity.max_bytes),
               static_cast<unsigned long long>(capacity.max_entries),
               service.plan_cache() == nullptr
                   ? "off"
                   : service.plan_cache()->disk_tier() ? "mem+disk" : "mem",
               jobs, jobs == 1 ? "" : "s");

  if (socket_mode) {
    net::SocketServerConfig net_cfg;
    net_cfg.port = port;
    net_cfg.workers = workers;
    net_cfg.max_pending = max_pending;
    net_cfg.max_write_buffer_bytes = 8u << 20;
    net_cfg.framing = net::line_framing(64u << 10);
    net_cfg.busy_response = error_json("error busy (queue full, retry)");
    net_cfg.deadline_response =
        error_json("error deadline expired in queue");
    net_cfg.fatal_response = error_json("error line too long");
    net_cfg.deadline_of = svc::plan_deadline_ms;
    // The handler wants the server back (net counters in `stats`), but
    // the server needs the handler to construct: late-bind through a
    // pointer that is set before start() spawns any worker.
    net::SocketServer* server_ptr = nullptr;
    net_cfg.handler = [&service, &server_ptr](const std::string& line) {
      return handle_line(service, server_ptr, line);
    };
    net::SocketServer server(std::move(net_cfg));
    server_ptr = &server;
    std::fprintf(stderr,
                 "plan_server listening on 127.0.0.1:%u (%u net workers, "
                 "%llu max pending)\n",
                 server.port(), workers,
                 static_cast<unsigned long long>(max_pending));
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    server.start();
    if (!port_file.empty()) {
      std::ofstream pf(port_file, std::ios::trunc);
      pf << server.port() << "\n";
    }
    server.join();
    g_server = nullptr;
    std::fprintf(stderr, "plan_server drained, exiting\n");
    return 0;
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;  // blank line
    if (cmd == "quit" || cmd == "exit") break;
    std::printf("%s\n", handle_line(service, nullptr, line).c_str());
    std::fflush(stdout);
  }
  return 0;
}
