// Framing-agnostic poll-loop socket server: the one transport under
// plan_server (net::line_framing, newline-delimited text) and
// blob_server (net::frame_framing, length-prefixed binary frames). It
// knows no protocol beyond the canned responses its embedder provides.
//
// One IO thread owns every socket and runs a poll(2) event loop: it
// accepts connections, feeds received bytes through the framing's
// `extract` hook to pop complete messages, and flushes response bytes
// back out under POLLOUT.  It never runs application code.  A pool of
// worker threads consumes a bounded global request queue and calls the
// (blocking, thread-safe) handler.
//
// Contracts (the same under either framing):
//  * PER-CONNECTION ORDERING: responses are written in request order per
//    connection, no matter how workers interleave (each request gets a
//    sequence number; finished responses park in a per-connection
//    reorder map until their turn).  Different connections are
//    independent.
//  * BACKPRESSURE / SHEDDING: the pending-request queue is bounded
//    (Config::max_pending).  A request that arrives with the queue full
//    is answered immediately with Config::busy_response and NOT queued.
//    A connection whose outbound buffer exceeds max_write_buffer_bytes
//    (a reader that stopped reading) is closed.
//  * DEADLINES AT ADMISSION: Config::deadline_of extracts an optional
//    per-request deadline from the raw message.  The clock starts at
//    admission; a worker that dequeues an expired request answers
//    Config::deadline_response without calling the handler.  A request
//    that started in time always runs to completion.
//  * PROTOCOL FATALITY: when `extract` reports the stream cannot be
//    resynced (overlong line / oversized frame / corrupt framing), the
//    canned fatal_response is parked at the NEXT sequence slot — every
//    message admitted before it still answers in order — reading stops,
//    and the connection closes once all owed bytes are flushed.
//  * GRACEFUL DRAIN: shutdown() is async-signal-safe (one write to a
//    self-pipe).  The server stops accepting and stops reading, but
//    every already-admitted request is served and every response byte
//    flushed before join() returns.
//
// The canned responses are payloads, encoded like any handler result.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "net/framing.hpp"

namespace cms::net {

struct SocketServerConfig {
  /// TCP port to bind on 127.0.0.1; 0 picks an ephemeral port (read the
  /// resolved one back via SocketServer::port()).
  std::uint16_t port = 0;
  /// Worker threads calling `handler`; bounds server-side concurrency.
  unsigned workers = 4;
  /// Bound on ADMITTED-but-not-yet-started requests across all
  /// connections; arrivals beyond it are shed with `busy_response`.
  std::size_t max_pending = 256;
  /// Outbound-buffer cap per connection; exceeding it closes the
  /// connection (slow consumer).
  std::size_t max_write_buffer_bytes = 8u << 20;

  /// Application callback: one request payload in, one response payload
  /// out. Called concurrently from worker threads; must be thread-safe.
  /// May block.
  std::function<std::string(const std::string& payload)> handler;
  /// Optional admission-deadline extractor (milliseconds from
  /// admission); null = no deadlines.
  std::function<std::optional<std::uint64_t>(const std::string& payload)>
      deadline_of = nullptr;

  /// The wire framing, with its size cap: line_framing or
  /// frame_framing (net/framing.hpp).
  Framing framing;

  /// Canned response payload for a request shed by the full queue.
  std::string busy_response;
  /// Canned response payload for a request expired in queue.
  std::string deadline_response;
  /// Canned response payload parked before closing on Extract::kFatal.
  std::string fatal_response;
};

class SocketServer {
 public:
  /// Binds + listens on 127.0.0.1:cfg.port (throws std::system_error /
  /// std::invalid_argument on failure) but serves nothing until start().
  explicit SocketServer(SocketServerConfig cfg);
  /// stop() semantics of shutdown() + join(): pending work is drained.
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// The resolved listening port (after an ephemeral bind).
  std::uint16_t port() const;

  /// Spawn the IO thread and the worker pool. Call once.
  void start();
  /// Request a graceful drain. Async-signal-safe and idempotent.
  void shutdown();
  /// Wait until drained: every admitted request answered, every byte
  /// flushed, all threads joined. Call from the thread that start()ed.
  void join();

  struct Stats {
    std::uint64_t accepted = 0;          // connections accepted
    std::uint64_t requests = 0;          // messages admitted or shed
    std::uint64_t served = 0;            // responses produced by handler
    std::uint64_t shed = 0;              // busy_response (queue full)
    std::uint64_t deadline_expired = 0;  // deadline_response (in queue)
    std::uint64_t closed_protocol = 0;   // closed on Extract::kFatal
    std::uint64_t closed_slow = 0;       // closed on write-buffer cap
  };
  Stats stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace cms::net
