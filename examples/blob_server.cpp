// blob_server: export a StoreBackend directory over TCP — the far-tier
// daemon of the fleet story. Point any number of boxes at it with
// `--store-l2 tcp://host:port` and their TieredBackends read through to
// (and write through into) ONE shared blob store: every capture and
// every plan is computed once globally, not once per box.
//
// The wire is net::FrameServer framing (4-byte LE length + payload)
// carrying the versioned, checksummed blob protocol of
// opt/blob_protocol.hpp; opt::NetBackend is the matching client. The
// daemon is protocol-complete: get/put/stat/remove/list/ping, so a
// TraceStore or PlanCache could even mount a bare NetBackend directly.
//
//   $ ./example_blob_server --dir far-store --port 0 --port-file p.txt
//   $ ./micro_trace_store --trace-dir l1 --store-l2 tcp://127.0.0.1:$(cat p.txt)
//
// Flags: --dir D           directory to export (default blob_server.store)
//        --mode ro|rw      rw (default) accepts puts/removes; ro answers
//                          them with a server error (clients degrade)
//        --port N          listen on 127.0.0.1:N (0 = ephemeral)
//        --port-file PATH  write the resolved port here once listening
//        --net-workers N   worker threads (concurrent blob requests)
//        --max-pending N   admission queue bound (excess sheds with a
//                          busy error response)
//   SIGTERM/SIGINT drain gracefully: stop accepting + reading, answer
//   every admitted request, flush every byte, then exit 0.
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>

#include "core/cli.hpp"
#include "net/frame_server.hpp"
#include "opt/blob_protocol.hpp"
#include "opt/store_backend.hpp"

using namespace cms;

namespace {

net::FrameServer* g_server = nullptr;  // SIGTERM/SIGINT -> graceful drain

void on_signal(int) {
  if (g_server != nullptr) g_server->shutdown();  // async-signal-safe
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir = core::parse_string_flag(argc, argv, "--dir");
  if (dir.empty()) dir = "blob_server.store";
  const std::string mode = core::parse_string_flag(argc, argv, "--mode", "rw");
  if (mode != "ro" && mode != "rw") {
    std::fprintf(stderr, "blob_server: bad --mode '%s' (ro|rw)\n",
                 mode.c_str());
    return 1;
  }
  const bool writable = mode == "rw";

  std::shared_ptr<opt::StoreBackend> backend;
  try {
    // ro never creates: exporting a missing directory read-only should
    // serve misses, not invent an empty store.
    backend = std::make_shared<opt::DirBackend>(dir, /*create=*/writable);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "blob_server: %s\n", e.what());
    return 1;
  }

  const unsigned workers = core::parse_net_workers(argc, argv);
  net::FrameServerConfig cfg;
  cfg.port = core::parse_port(argc, argv);
  cfg.workers = workers;
  cfg.max_pending = core::parse_max_pending(argc, argv);
  cfg.busy_response = opt::blob_error_response("server busy (queue full)");
  cfg.fatal_response =
      opt::blob_error_response("oversized or corrupt request frame");
  cfg.handler = [backend, writable](const std::string& payload) {
    return opt::handle_blob_request(*backend, payload, writable);
  };

  try {
    net::FrameServer server(std::move(cfg));
    g_server = &server;
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);
    server.start();
    std::fprintf(stderr,
                 "blob_server exporting %s (%s) on 127.0.0.1:%u (%u "
                 "workers)\n",
                 backend->describe().c_str(), writable ? "rw" : "ro",
                 server.port(), workers);
    const std::string port_file =
        core::parse_string_flag(argc, argv, "--port-file");
    if (!port_file.empty()) {
      std::ofstream pf(port_file, std::ios::trunc);
      pf << server.port() << "\n";
    }
    server.join();
    g_server = nullptr;
    const net::FrameServer::Stats s = server.stats();
    std::fprintf(stderr,
                 "blob_server drained: %llu requests (%llu served, %llu "
                 "shed), exiting\n",
                 static_cast<unsigned long long>(s.requests),
                 static_cast<unsigned long long>(s.served),
                 static_cast<unsigned long long>(s.shed));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "blob_server: %s\n", e.what());
    return 1;
  }
}
