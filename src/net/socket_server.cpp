#include "net/socket_server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <mutex>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

namespace cms::net {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

}  // namespace

/// One live connection. The IO thread owns fd / rbuf / wbuf / next_seq /
/// reads_done / close_after_flush outright; workers only touch the
/// reorder map (`done`, guarded by `mu`) and the atomics.
struct Conn {
  int fd = -1;
  std::string rbuf;
  std::string wbuf;
  std::uint64_t next_seq = 0;
  bool reads_done = false;         // fatal framing or drain: stop parsing
  bool close_after_flush = false;  // close once every response is flushed

  std::mutex mu;
  std::map<std::uint64_t, std::string> done;  // finished, awaiting turn
  std::uint64_t next_emit = 0;  // next seq to append to wbuf (under mu)
  std::atomic<bool> closed{false};
};

struct SocketServer::Impl {
  SocketServerConfig cfg;
  int listen_fd = -1;
  int wake_r = -1;  // self-pipe: workers + shutdown() wake the IO poll
  int wake_w = -1;
  std::uint16_t port = 0;

  std::thread io;
  std::vector<std::thread> workers;
  bool started = false;
  std::atomic<bool> shutting_down{false};

  struct Request {
    std::shared_ptr<Conn> conn;
    std::uint64_t seq = 0;
    std::string payload;
    std::optional<std::uint64_t> deadline_ms;
    Clock::time_point admitted;
  };
  std::mutex qmu;
  std::condition_variable qcv;
  std::deque<Request> queue;   // bounded by cfg.max_pending
  bool workers_stop = false;   // under qmu
  /// Admitted-but-unanswered requests (queued OR running in a worker).
  /// The drain condition needs it: the IO thread may only exit once
  /// every admitted request has parked its response.
  std::atomic<std::uint64_t> in_flight{0};

  std::map<int, std::shared_ptr<Conn>> conns;  // IO thread only

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> served{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> deadline_expired{0};
  std::atomic<std::uint64_t> closed_protocol{0};
  std::atomic<std::uint64_t> closed_slow{0};

  ~Impl() {
    if (listen_fd >= 0) ::close(listen_fd);
    if (wake_r >= 0) ::close(wake_r);
    if (wake_w >= 0) ::close(wake_w);
  }

  void wake() {
    const char b = 1;
    // Full pipe already guarantees a pending wakeup; EBADF only after
    // teardown. Either way the poke is safe to drop.
    [[maybe_unused]] const ssize_t n = ::write(wake_w, &b, 1);
  }

  /// Park a finished response at its sequence slot, wire-encoded.
  /// Thread-safe; drops silently once the connection is gone.
  void complete(const std::shared_ptr<Conn>& c, std::uint64_t seq,
                std::string payload) {
    std::string wire = cfg.framing.encode(std::move(payload));
    if (!c->closed.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> lk(c->mu);
      c->done.emplace(seq, std::move(wire));
    }
  }

  /// True once every admitted message's response has been moved to wbuf.
  /// Needed by close_after_flush: an empty wbuf alone is NOT "flushed" —
  /// responses may still be in the worker queue, not yet emitted.
  bool all_emitted(Conn& c) {
    std::lock_guard<std::mutex> lk(c.mu);
    return c.next_emit == c.next_seq;
  }

  /// Move every in-order finished response into the write buffer.
  void pump(Conn& c) {
    std::lock_guard<std::mutex> lk(c.mu);
    for (auto it = c.done.find(c.next_emit); it != c.done.end();
         it = c.done.find(c.next_emit)) {
      c.wbuf += it->second;
      c.done.erase(it);
      ++c.next_emit;
    }
  }

  /// Admit one message (IO thread): queue it, or shed with the canned
  /// busy response when the queue is at capacity — the response still
  /// occupies the message's sequence slot, so ordering holds.
  void admit(const std::shared_ptr<Conn>& c, std::string payload) {
    requests.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t seq = c->next_seq++;
    std::optional<std::uint64_t> deadline;
    if (cfg.deadline_of) deadline = cfg.deadline_of(payload);
    bool full = false;
    {
      std::lock_guard<std::mutex> lk(qmu);
      if (queue.size() >= cfg.max_pending) {
        full = true;
      } else {
        in_flight.fetch_add(1, std::memory_order_relaxed);
        queue.push_back(
            Request{c, seq, std::move(payload), deadline, Clock::now()});
      }
    }
    if (full) {
      shed.fetch_add(1, std::memory_order_relaxed);
      complete(c, seq, cfg.busy_response);
    } else {
      qcv.notify_one();
    }
  }

  void close_conn(const std::shared_ptr<Conn>& c) {
    c->closed.store(true, std::memory_order_release);
    ::close(c->fd);
    conns.erase(c->fd);
  }

  /// Pop complete messages off the read buffer and admit each, until the
  /// framing wants more bytes — or declares the stream unrecoverable, in
  /// which case the fatal response is parked at the next slot (so
  /// everything admitted before it still answers in order) and the
  /// connection closes once flushed. The consumed prefix is erased once.
  void parse_messages(const std::shared_ptr<Conn>& c) {
    std::size_t pos = 0;
    for (;;) {
      std::string msg;
      const Extract st = cfg.framing.extract(c->rbuf, pos, msg);
      if (st == Extract::kMessage) {
        admit(c, std::move(msg));
        continue;
      }
      if (st == Extract::kFatal) {
        closed_protocol.fetch_add(1, std::memory_order_relaxed);
        complete(c, c->next_seq++, cfg.fatal_response);
        pos = c->rbuf.size();  // nothing behind it is ever parsed
        c->reads_done = true;
        c->close_after_flush = true;
      }
      break;  // kNeedMore or kFatal
    }
    c->rbuf.erase(0, pos);
  }

  void worker_loop() {
    for (;;) {
      Request req;
      {
        std::unique_lock<std::mutex> lk(qmu);
        qcv.wait(lk, [&] { return workers_stop || !queue.empty(); });
        if (queue.empty()) {
          if (workers_stop) return;
          continue;
        }
        req = std::move(queue.front());
        queue.pop_front();
      }
      std::string resp;
      if (req.deadline_ms &&
          ms_since(req.admitted) > static_cast<double>(*req.deadline_ms)) {
        // Admission-deadline contract: the clock ran out while the
        // request sat in the queue, so it never starts. (Once the
        // handler is entered the request always runs to completion.)
        deadline_expired.fetch_add(1, std::memory_order_relaxed);
        resp = cfg.deadline_response;
      } else {
        resp = cfg.handler(req.payload);
        served.fetch_add(1, std::memory_order_relaxed);
      }
      complete(req.conn, req.seq, std::move(resp));
      // Release pairs with the IO thread's acquire in its drain check:
      // whoever sees this decrement also sees the parked response.
      in_flight.fetch_sub(1, std::memory_order_release);
      wake();
    }
  }

  void io_loop() {
    std::vector<pollfd> fds;
    std::vector<std::shared_ptr<Conn>> polled;
    char buf[4096];
    for (;;) {
      const bool draining = shutting_down.load(std::memory_order_relaxed);

      // Drain check FIRST: once no request is queued or running, a final
      // pump below parks every outstanding response, so "all write
      // buffers empty after pumping" means fully flushed. (Observing
      // in_flight == 0 with acquire pairs with the workers' release
      // decrement, which follows their complete(); the per-connection
      // mutex taken by pump() makes the parked bytes visible.)
      bool maybe_drained = false;
      if (draining && in_flight.load(std::memory_order_acquire) == 0) {
        std::lock_guard<std::mutex> lk(qmu);
        maybe_drained = queue.empty();
      }

      // Park in-order responses, then decide each connection's events.
      fds.clear();
      polled.clear();
      fds.push_back(pollfd{wake_r, POLLIN, 0});
      if (!draining && listen_fd >= 0)
        fds.push_back(pollfd{listen_fd, POLLIN, 0});
      bool pending_bytes = false;
      for (auto it = conns.begin(); it != conns.end();) {
        const std::shared_ptr<Conn> c = it->second;
        ++it;  // close_conn below erases
        pump(*c);
        if (c->wbuf.size() > cfg.max_write_buffer_bytes) {
          closed_slow.fetch_add(1, std::memory_order_relaxed);
          close_conn(c);
          continue;
        }
        if (c->wbuf.empty() && c->close_after_flush && all_emitted(*c)) {
          close_conn(c);
          continue;
        }
        short ev = 0;
        if (!c->reads_done && !draining) ev |= POLLIN;
        if (!c->wbuf.empty()) ev |= POLLOUT;
        if (ev == 0) {
          // Nothing to read (drain) and nothing to write: poll only for
          // errors/hangup so a dead peer still reaps the connection.
          ev = POLLERR;
        }
        fds.push_back(pollfd{c->fd, ev, 0});
        polled.push_back(c);
        if (!c->wbuf.empty()) pending_bytes = true;
      }

      if (maybe_drained && !pending_bytes) break;  // fully drained

      if (::poll(fds.data(), fds.size(), 250) < 0) {
        if (errno == EINTR) continue;
        break;  // unrecoverable poll failure: drop to teardown
      }

      // Self-pipe: swallow every queued poke.
      if (fds[0].revents & POLLIN)
        while (::read(wake_r, buf, sizeof buf) > 0) {
        }

      // New connections.
      std::size_t idx = 1;
      if (!draining && listen_fd >= 0) {
        if (fds[idx].revents & POLLIN) {
          for (;;) {
            const int cfd = ::accept(listen_fd, nullptr, nullptr);
            if (cfd < 0) break;
            set_nonblocking(cfd);
            const int one = 1;
            ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            auto conn = std::make_shared<Conn>();
            conn->fd = cfd;
            conns.emplace(cfd, std::move(conn));
            accepted.fetch_add(1, std::memory_order_relaxed);
          }
        }
        ++idx;
      }

      // Connection IO.
      for (std::size_t p = 0; p < polled.size(); ++p, ++idx) {
        const std::shared_ptr<Conn>& c = polled[p];
        const short re = fds[idx].revents;
        if (re & (POLLERR | POLLNVAL)) {
          close_conn(c);
          continue;
        }
        if (re & POLLIN) {
          bool peer_closed = false;
          for (;;) {
            const ssize_t n = ::recv(c->fd, buf, sizeof buf, 0);
            if (n > 0) {
              c->rbuf.append(buf, static_cast<std::size_t>(n));
              if (c->rbuf.size() >= sizeof buf) break;  // parse, re-poll
              continue;
            }
            if (n == 0) peer_closed = true;
            break;  // EAGAIN, error or EOF
          }
          parse_messages(c);
          if (peer_closed) {
            // Half-close: the peer finished sending but may still be
            // reading. Flush whatever is (or becomes) owed, then close.
            c->reads_done = true;
            c->close_after_flush = true;
          }
        } else if (re & POLLHUP) {
          // POLLHUP without readable data: the peer is gone for good.
          close_conn(c);
          continue;
        }
        if (re & POLLOUT) {
          pump(*c);
          while (!c->wbuf.empty()) {
            const ssize_t n = ::send(c->fd, c->wbuf.data(), c->wbuf.size(),
                                     MSG_NOSIGNAL);
            if (n > 0) {
              c->wbuf.erase(0, static_cast<std::size_t>(n));
              continue;
            }
            if (errno != EAGAIN && errno != EWOULDBLOCK) {
              c->closed.store(true, std::memory_order_release);
              close_conn(c);
            }
            break;
          }
        }
      }
    }

    // Teardown: every admitted request was answered and flushed (or its
    // connection died); whatever is left are idle connections.
    for (auto& [fd, c] : conns) {
      c->closed.store(true, std::memory_order_release);
      ::close(fd);
    }
    conns.clear();
  }
};

SocketServer::SocketServer(SocketServerConfig cfg) : impl_(new Impl) {
  if (!cfg.handler)
    throw std::invalid_argument("SocketServer needs a handler");
  if (cfg.workers == 0)
    throw std::invalid_argument("SocketServer needs at least one worker");
  if (!cfg.framing.extract || !cfg.framing.encode)
    throw std::invalid_argument("SocketServer needs a framing");
  impl_->cfg = std::move(cfg);

  int pipefd[2];
  if (::pipe(pipefd) != 0) throw_errno("pipe");
  impl_->wake_r = pipefd[0];
  impl_->wake_w = pipefd[1];
  set_nonblocking(impl_->wake_r);
  set_nonblocking(impl_->wake_w);

  impl_->listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (impl_->listen_fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(impl_->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(impl_->cfg.port);
  if (::bind(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
             sizeof addr) != 0)
    throw_errno("bind");
  if (::listen(impl_->listen_fd, 128) != 0) throw_errno("listen");
  set_nonblocking(impl_->listen_fd);

  socklen_t len = sizeof addr;
  if (::getsockname(impl_->listen_fd, reinterpret_cast<sockaddr*>(&addr),
                    &len) != 0)
    throw_errno("getsockname");
  impl_->port = ntohs(addr.sin_port);
}

SocketServer::~SocketServer() {
  shutdown();
  join();
}

std::uint16_t SocketServer::port() const { return impl_->port; }

void SocketServer::start() {
  if (impl_->started) throw std::logic_error("SocketServer already started");
  impl_->started = true;
  impl_->io = std::thread([this] { impl_->io_loop(); });
  impl_->workers.reserve(impl_->cfg.workers);
  for (unsigned i = 0; i < impl_->cfg.workers; ++i)
    impl_->workers.emplace_back([this] { impl_->worker_loop(); });
}

void SocketServer::shutdown() {
  impl_->shutting_down.store(true, std::memory_order_relaxed);
  impl_->wake();
}

void SocketServer::join() {
  if (!impl_->started) return;
  if (impl_->io.joinable()) impl_->io.join();
  {
    std::lock_guard<std::mutex> lk(impl_->qmu);
    impl_->workers_stop = true;
  }
  impl_->qcv.notify_all();
  for (std::thread& w : impl_->workers)
    if (w.joinable()) w.join();
  impl_->workers.clear();
}

SocketServer::Stats SocketServer::stats() const {
  Stats s;
  s.accepted = impl_->accepted.load(std::memory_order_relaxed);
  s.requests = impl_->requests.load(std::memory_order_relaxed);
  s.served = impl_->served.load(std::memory_order_relaxed);
  s.shed = impl_->shed.load(std::memory_order_relaxed);
  s.deadline_expired = impl_->deadline_expired.load(std::memory_order_relaxed);
  s.closed_protocol = impl_->closed_protocol.load(std::memory_order_relaxed);
  s.closed_slow = impl_->closed_slow.load(std::memory_order_relaxed);
  return s;
}

}  // namespace cms::net
