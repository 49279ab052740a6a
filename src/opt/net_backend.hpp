// Networked StoreBackend: the client side of the blob wire protocol
// (opt/blob_protocol.hpp over net::frame_framing). Drop it in as
// the L2 of a TieredBackend and a fleet shares one far tier — every box
// captures a digest once globally — with zero changes to TraceStore /
// PlanCache / PlanningService.
//
// Failure -> StoreBackend contract mapping:
//  * server answers miss               -> nullopt (absent/vanished)
//  * server answers error              -> std::runtime_error (present but
//                                         unreadable, or a write failed)
//  * protocol corruption (bad magic/   -> std::runtime_error, never
//    version/checksum/truncation)         retried
//  * transport failure (dial, send,    -> retried with backoff (all ops
//    recv, timeout)                       are idempotent: blobs are
//                                         content-addressed, immutable);
//                                         std::runtime_error when retries
//                                         run out
// TieredBackend already converts every thrown L2 error into a logged
// L1-only degradation, so a dead or flaky blob server costs latency and
// far-tier sharing, never correctness.
//
// remove() reports kFailed instead of throwing on any failure — the
// three-way outcome already carries "still occupying storage", and
// eviction accounting must stay honest, not crash.
//
// Connections: a small mutex-guarded pool of idle sockets, one popped
// (or dialed) per RPC and returned on success. A pooled connection gone
// stale (the server restarted) fails its first exchange and is replaced
// by a fresh dial without consuming the retry budget. Dials use a
// nonblocking connect bounded by connect_timeout_ms; established
// sockets carry SO_SNDTIMEO / SO_RCVTIMEO of io_timeout_ms.
//
// Thread-safety: any number of threads; the pool is the only shared
// mutable state besides the counters.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "opt/store_backend.hpp"

namespace cms::opt {

struct NetBackendConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Bound on establishing a connection (nonblocking connect + poll).
  double connect_timeout_ms = 2000.0;
  /// Bound on each send/recv once connected (SO_SNDTIMEO/SO_RCVTIMEO).
  double io_timeout_ms = 10000.0;
  /// Fresh-dial attempts AFTER the first on transport failure.
  unsigned retries = 1;
  /// Sleep before retry attempt k is k * retry_backoff_ms.
  double retry_backoff_ms = 25.0;
  /// Idle sockets kept for reuse; excess connections are closed.
  std::size_t max_idle_connections = 4;
  /// Largest response frame accepted (mirrors the server's cap).
  std::size_t max_frame_bytes = 256u << 20;
};

/// Parse "tcp://host:port" into a config carrying defaults for
/// everything else. Throws std::runtime_error on anything malformed
/// (missing scheme, empty host, non-numeric or zero port).
NetBackendConfig parse_tcp_endpoint(const std::string& url);

/// True when a CLI store target names a networked far tier rather than
/// a directory.
inline bool is_tcp_endpoint(const std::string& target) {
  return target.rfind("tcp://", 0) == 0;
}

class NetBackend final : public StoreBackend {
 public:
  explicit NetBackend(NetBackendConfig cfg);
  explicit NetBackend(const std::string& url)
      : NetBackend(parse_tcp_endpoint(url)) {}
  ~NetBackend() override;

  NetBackend(const NetBackend&) = delete;
  NetBackend& operator=(const NetBackend&) = delete;

  /// Round-trip observability for benches ("net" block in BENCH_*.json).
  struct Counters {
    std::uint64_t ops = 0;         // RPCs attempted
    std::uint64_t failures = 0;    // RPCs that threw (all retries spent)
    std::uint64_t retries = 0;     // backoff retry rounds taken
    std::uint64_t reconnects = 0;  // fresh dials (first dial included)
    double total_ms = 0;           // wall clock across successful RPCs
    double max_ms = 0;             // slowest successful RPC
  };
  Counters counters() const;

  std::string describe() const override;  // "tcp://host:port"
  std::optional<Blob> get(BlobKind kind, const std::string& digest) override;
  void put(BlobKind kind, const std::string& digest,
           const Blob& bytes) override;
  std::optional<std::uint64_t> stat(BlobKind kind,
                                    const std::string& digest) override;
  RemoveOutcome remove(BlobKind kind, const std::string& digest) override;
  std::vector<ListedBlob> list(BlobKind kind) override;

 private:
  /// One framed request -> one framed response payload, with pooling,
  /// timeouts and transport retry. Throws std::runtime_error when the
  /// transport gives out.
  std::string rpc(const std::string& request_payload);

  int pop_idle();
  void push_idle(int fd);
  int dial();  // throws TransportError (internal type)

  NetBackendConfig cfg_;

  mutable std::mutex mu_;  // pool + timing counters
  std::vector<int> idle_;
  double total_ms_ = 0;
  double max_ms_ = 0;

  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> failures_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> reconnects_{0};
};

}  // namespace cms::opt
