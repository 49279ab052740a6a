#include "opt/net_backend.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/log.hpp"
#include "net/framing.hpp"
#include "opt/blob_protocol.hpp"

namespace cms::opt {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Connection-level failure: dial/send/recv/timeout. The only class of
/// error the RPC loop retries (the request may never have reached the
/// server); everything the server actually answered is final.
struct TransportError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void throw_transport(const std::string& what) {
  throw TransportError(what + " (" + std::strerror(errno) + ")");
}

void set_io_timeout(int fd, double ms) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>((ms - tv.tv_sec * 1000.0) * 1000.0);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

void send_all(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
      throw TransportError("send timed out");
    throw_transport("send failed");
  }
}

void recv_exact(int fd, char* out, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t got = ::recv(fd, out + off, n - off, 0);
    if (got > 0) {
      off += static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0) throw TransportError("connection closed by server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      throw TransportError("recv timed out");
    throw_transport("recv failed");
  }
}

std::string recv_frame(int fd, std::size_t max_frame_bytes) {
  char header[net::kFrameHeaderBytes];
  recv_exact(fd, header, sizeof header);
  const std::uint32_t len = net::frame_length(header);
  // An insane declared length is protocol corruption, not a transport
  // blip — but the bytes behind it are unrecoverable either way, so the
  // connection is torn down by the (non-retried) throw below.
  if (len > max_frame_bytes)
    throw std::runtime_error("blob response frame of " + std::to_string(len) +
                             " bytes exceeds the frame cap");
  std::string payload(len, '\0');
  if (len > 0) recv_exact(fd, payload.data(), len);
  return payload;
}

/// Common response validation: server-reported errors and op echo
/// mismatches both throw (never retried).
const BlobResponse& check_response(const BlobResponse& resp, BlobOp want_op,
                                   const std::string& who) {
  if (resp.status == BlobStatus::kError)
    throw std::runtime_error(who + ": server error: " + resp.error);
  if (resp.op != want_op)
    throw std::runtime_error(who + ": blob response answers the wrong op");
  return resp;
}

}  // namespace

NetBackendConfig parse_tcp_endpoint(const std::string& url) {
  const std::string prefix = "tcp://";
  if (url.rfind(prefix, 0) != 0)
    throw std::runtime_error(url + ": not a tcp://host:port endpoint");
  const std::string rest = url.substr(prefix.size());
  const std::size_t colon = rest.rfind(':');
  if (colon == std::string::npos || colon == 0)
    throw std::runtime_error(url + ": tcp endpoint needs host:port");
  const std::string host = rest.substr(0, colon);
  const std::string port_str = rest.substr(colon + 1);
  if (port_str.empty())
    throw std::runtime_error(url + ": tcp endpoint needs host:port");
  std::uint64_t port = 0;
  for (const char c : port_str) {
    if (c < '0' || c > '9')
      throw std::runtime_error(url + ": malformed tcp port");
    port = port * 10 + static_cast<std::uint64_t>(c - '0');
    if (port > 65535) throw std::runtime_error(url + ": tcp port out of range");
  }
  if (port == 0) throw std::runtime_error(url + ": tcp port must be nonzero");
  NetBackendConfig cfg;
  cfg.host = host;
  cfg.port = static_cast<std::uint16_t>(port);
  return cfg;
}

NetBackend::NetBackend(NetBackendConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.host.empty() || cfg_.port == 0)
    throw std::runtime_error("NetBackend needs a host and a nonzero port");
}

NetBackend::~NetBackend() {
  std::lock_guard<std::mutex> lk(mu_);
  for (const int fd : idle_) ::close(fd);
  idle_.clear();
}

std::string NetBackend::describe() const {
  return "tcp://" + cfg_.host + ":" + std::to_string(cfg_.port);
}

int NetBackend::pop_idle() {
  std::lock_guard<std::mutex> lk(mu_);
  if (idle_.empty()) return -1;
  const int fd = idle_.back();
  idle_.pop_back();
  return fd;
}

void NetBackend::push_idle(int fd) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (idle_.size() < cfg_.max_idle_connections) {
      idle_.push_back(fd);
      return;
    }
  }
  ::close(fd);
}

int NetBackend::dial() {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(cfg_.port);
  const int gai = ::getaddrinfo(cfg_.host.c_str(), port_str.c_str(), &hints,
                                &res);
  if (gai != 0 || res == nullptr)
    throw TransportError(describe() + ": cannot resolve host (" +
                         ::gai_strerror(gai) + ")");
  const int fd = ::socket(res->ai_family, res->ai_socktype, res->ai_protocol);
  if (fd < 0) {
    ::freeaddrinfo(res);
    throw_transport(describe() + ": socket failed");
  }
  // Nonblocking connect bounded by connect_timeout_ms, then back to
  // blocking IO under SO_SNDTIMEO/SO_RCVTIMEO.
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    throw_transport(describe() + ": connect failed");
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    const int timeout_ms = cfg_.connect_timeout_ms < 1.0
                               ? 1
                               : static_cast<int>(cfg_.connect_timeout_ms);
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready <= 0) {
      ::close(fd);
      throw TransportError(describe() + ": connect timed out");
    }
    int err = 0;
    socklen_t len = sizeof err;
    ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      ::close(fd);
      throw TransportError(describe() + ": connect failed (" +
                           std::strerror(err) + ")");
    }
  }
  ::fcntl(fd, F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  set_io_timeout(fd, cfg_.io_timeout_ms);
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  return fd;
}

std::string NetBackend::rpc(const std::string& request_payload) {
  ops_.fetch_add(1, std::memory_order_relaxed);
  const Clock::time_point t0 = Clock::now();
  const std::string wire = net::frame_encode(request_payload);

  const auto exchange = [&](int fd) {
    send_all(fd, wire);
    std::string resp = recv_frame(fd, cfg_.max_frame_bytes);
    push_idle(fd);
    const double ms = ms_since(t0);
    std::lock_guard<std::mutex> lk(mu_);
    total_ms_ += ms;
    if (ms > max_ms_) max_ms_ = ms;
    return resp;
  };

  std::string last_error;
  for (unsigned attempt = 0; attempt <= cfg_.retries; ++attempt) {
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          cfg_.retry_backoff_ms * attempt));
    }
    // A pooled connection first. Its failure is usually staleness (the
    // server restarted since it was parked), so it does not consume the
    // attempt — fall through to a fresh dial immediately.
    if (int fd = pop_idle(); fd >= 0) {
      try {
        return exchange(fd);
      } catch (const TransportError& e) {
        ::close(fd);
        last_error = e.what();
      } catch (...) {
        ::close(fd);
        throw;  // protocol corruption: the connection is done, no retry
      }
    }
    int fd = -1;
    try {
      fd = dial();
      return exchange(fd);
    } catch (const TransportError& e) {
      if (fd >= 0) ::close(fd);
      last_error = e.what();
    } catch (...) {
      if (fd >= 0) ::close(fd);
      throw;
    }
  }
  failures_.fetch_add(1, std::memory_order_relaxed);
  throw std::runtime_error(describe() + ": blob rpc failed after " +
                           std::to_string(cfg_.retries + 1) +
                           " attempts: " + last_error);
}

std::optional<StoreBackend::Blob> NetBackend::get(BlobKind kind,
                                                  const std::string& digest) {
  BlobRequest req;
  req.op = BlobOp::kGet;
  req.kind = kind;
  req.digest = digest;
  BlobResponse resp = decode_blob_response(rpc(encode_blob_request(req)));
  check_response(resp, BlobOp::kGet, describe());
  if (resp.status == BlobStatus::kMiss) return std::nullopt;
  return std::move(resp.bytes);
}

void NetBackend::put(BlobKind kind, const std::string& digest,
                     const Blob& bytes) {
  BlobRequest req;
  req.op = BlobOp::kPut;
  req.kind = kind;
  req.digest = digest;
  req.bytes = bytes;
  const BlobResponse resp =
      decode_blob_response(rpc(encode_blob_request(req)));
  check_response(resp, BlobOp::kPut, describe());
  if (resp.status != BlobStatus::kOk)
    throw std::runtime_error(describe() + ": put answered a miss status");
}

std::optional<std::uint64_t> NetBackend::stat(BlobKind kind,
                                              const std::string& digest) {
  BlobRequest req;
  req.op = BlobOp::kStat;
  req.kind = kind;
  req.digest = digest;
  const BlobResponse resp =
      decode_blob_response(rpc(encode_blob_request(req)));
  check_response(resp, BlobOp::kStat, describe());
  if (resp.status == BlobStatus::kMiss) return std::nullopt;
  return resp.size;
}

StoreBackend::RemoveOutcome NetBackend::remove(BlobKind kind,
                                               const std::string& digest) {
  BlobRequest req;
  req.op = BlobOp::kRemove;
  req.kind = kind;
  req.digest = digest;
  try {
    const BlobResponse resp =
        decode_blob_response(rpc(encode_blob_request(req)));
    check_response(resp, BlobOp::kRemove, describe());
    return resp.remove_outcome;
  } catch (const std::exception& e) {
    // remove() never throws: "kFailed" already means "still occupying
    // storage as far as anyone knows" — exactly the honest answer when
    // the wire or the server failed.
    log_warn() << describe() << ": remove failed, reporting kFailed: "
               << e.what();
    return RemoveOutcome::kFailed;
  }
}

std::vector<StoreBackend::ListedBlob> NetBackend::list(BlobKind kind) {
  BlobRequest req;
  req.op = BlobOp::kList;
  req.kind = kind;
  BlobResponse resp = decode_blob_response(rpc(encode_blob_request(req)));
  check_response(resp, BlobOp::kList, describe());
  return std::move(resp.rows);
}

NetBackend::Counters NetBackend::counters() const {
  Counters c;
  c.ops = ops_.load(std::memory_order_relaxed);
  c.failures = failures_.load(std::memory_order_relaxed);
  c.retries = retries_.load(std::memory_order_relaxed);
  c.reconnects = reconnects_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  c.total_ms = total_ms_;
  c.max_ms = max_ms_;
  return c;
}

}  // namespace cms::opt
