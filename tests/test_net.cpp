// Tests for net::LineServer (the poll-loop socket transport): many
// pipelined connections get their responses in request order no matter
// how the worker pool interleaves, the bounded admission queue sheds
// with the canned busy response (which still occupies its sequence slot),
// admission deadlines expire in-queue without invoking the handler,
// overlong lines answer then close, empty/CRLF lines are tolerated, and
// a graceful shutdown() drains every admitted request before join()
// returns. Everything runs against a stub handler — the transport knows
// nothing of the plan protocol, and these tests keep it that way.
//
// net::FrameServer (the length-prefixed binary cousin built on the same
// net::SocketServer machinery) gets the equivalent suite: binary-safe
// echo with pipelined ordering, byte-dripped reassembly, oversized-frame
// fatality, busy shedding with framed canned responses, and a
// deterministic-seed fuzz of frame extraction over real connections.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/frame_server.hpp"
#include "net/line_server.hpp"

namespace cms::net {
namespace {

/// Minimal blocking line-protocol client.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd_, 0);
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0)
        << strerror(errno);
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  TestClient(TestClient&& o) noexcept : fd_(o.fd_), buf_(std::move(o.buf_)) {
    o.fd_ = -1;
  }
  TestClient(const TestClient&) = delete;

  void send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      off += static_cast<std::size_t>(n);
    }
  }

  void finish_sending() { ::shutdown(fd_, SHUT_WR); }

  /// One response line (newline stripped); nullopt when the server closed.
  std::optional<std::string> recv_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// Exactly `n` raw bytes; nullopt when the server closed first.
  std::optional<std::string> recv_exact(std::size_t n) {
    while (buf_.size() < n) {
      char chunk[4096];
      const ssize_t got = ::recv(fd_, chunk, sizeof chunk, 0);
      if (got <= 0) return std::nullopt;
      buf_.append(chunk, static_cast<std::size_t>(got));
    }
    std::string out = buf_.substr(0, n);
    buf_.erase(0, n);
    return out;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// A handler gate: requests block inside the handler until release() —
/// the deterministic way to hold the single worker busy while the IO
/// thread admits (or sheds) everything behind it.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  void wait_entered(int n) {
    while (entered.load() < n) std::this_thread::sleep_for(
        std::chrono::milliseconds(1));
  }
  void block() {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return open; });
  }
  void release() {
    {
      std::lock_guard<std::mutex> lk(mu);
      open = true;
    }
    cv.notify_all();
  }
};

TEST(LineServer, PipelinedConnectionsAnswerInRequestOrder) {
  LineServerConfig cfg;
  cfg.workers = 8;
  // Scramble worker completion order on purpose: a line's sleep depends
  // on its content, so later requests routinely finish first and only
  // the reorder map can restore per-connection ordering.
  cfg.handler = [](const std::string& line) {
    const int ms = (line.back() - '0') % 3;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    return "echo:" + line;
  };
  LineServer server(std::move(cfg));
  server.start();

  constexpr int kConns = 4;
  constexpr int kLines = 10;
  std::vector<TestClient> clients;
  for (int c = 0; c < kConns; ++c) clients.emplace_back(server.port());
  for (int c = 0; c < kConns; ++c) {
    std::string burst;
    for (int i = 0; i < kLines; ++i) {
      burst += 'c';
      burst += std::to_string(c);
      burst += "-l";
      burst += std::to_string(i);
      burst += '\n';
    }
    clients[c].send_raw(burst);
  }
  for (int c = 0; c < kConns; ++c) {
    for (int i = 0; i < kLines; ++i) {
      const auto resp = clients[c].recv_line();
      ASSERT_TRUE(resp.has_value());
      std::string want = "echo:c";
      want += std::to_string(c);
      want += "-l";
      want += std::to_string(i);
      EXPECT_EQ(*resp, want);
    }
  }
  const LineServer::Stats s = server.stats();
  EXPECT_EQ(s.accepted, static_cast<std::uint64_t>(kConns));
  EXPECT_EQ(s.served, static_cast<std::uint64_t>(kConns * kLines));
  EXPECT_EQ(s.shed, 0u);
}

TEST(LineServer, BoundedQueueShedsWithBusyResponseInOrder) {
  Gate gate;
  LineServerConfig cfg;
  cfg.workers = 1;
  cfg.max_pending = 1;
  cfg.busy_response = "BUSY";
  cfg.handler = [&](const std::string& line) {
    if (line == "block") gate.block();
    return "ok:" + line;
  };
  LineServer server(std::move(cfg));
  server.start();

  TestClient c(server.port());
  // One request INSIDE the handler (the queue stays empty while it
  // blocks), then four pipelined behind it: one fills the queue, three
  // MUST shed — and the busy responses still arrive in request order.
  c.send_raw("block\n");
  gate.wait_entered(1);
  c.send_raw("q1\nq2\nq3\nq4\n");
  // Admission happens on the IO thread independent of the stuck worker;
  // wait until all five lines are accounted for before releasing.
  while (server.stats().requests < 5)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.stats().shed, 3u);
  gate.release();

  const char* want[] = {"ok:block", "ok:q1", "BUSY", "BUSY", "BUSY"};
  for (const char* w : want) {
    const auto resp = c.recv_line();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(*resp, w);
  }
  EXPECT_EQ(server.stats().served, 2u);
}

TEST(LineServer, AdmissionDeadlineExpiresInQueueWithoutHandler) {
  Gate gate;
  std::atomic<int> handled_dl{0};
  LineServerConfig cfg;
  cfg.workers = 1;
  cfg.deadline_response = "EXPIRED";
  cfg.deadline_of = [](const std::string& line)
      -> std::optional<std::uint64_t> {
    if (line.rfind("dl", 0) == 0) return 1;  // 1ms admission deadline
    return std::nullopt;
  };
  cfg.handler = [&](const std::string& line) {
    if (line == "block") gate.block();
    if (line.rfind("dl", 0) == 0) ++handled_dl;
    return "ok:" + line;
  };
  LineServer server(std::move(cfg));
  server.start();

  TestClient c(server.port());
  c.send_raw("block\n");
  gate.wait_entered(1);
  c.send_raw("dl-behind\n");
  while (server.stats().requests < 2)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // The deadline_ms=1 request now sits in the queue behind the stuck
  // worker; by the time it is dequeued its clock has long run out.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.release();

  EXPECT_EQ(c.recv_line(), std::optional<std::string>("ok:block"));
  EXPECT_EQ(c.recv_line(), std::optional<std::string>("EXPIRED"));
  EXPECT_EQ(server.stats().deadline_expired, 1u);
  EXPECT_EQ(handled_dl.load(), 0);  // the handler never saw it
}

TEST(LineServer, OverlongLineAnswersThenCloses) {
  LineServerConfig cfg;
  cfg.workers = 1;
  cfg.max_line_bytes = 32;
  cfg.overlong_response = "TOO-LONG";
  cfg.handler = [](const std::string& line) { return "ok:" + line; };
  LineServer server(std::move(cfg));
  server.start();

  TestClient c(server.port());
  // A short line first: it must still be answered, in order, before the
  // overlong error.
  c.send_raw("short\n");
  c.send_raw(std::string(100, 'a'));  // no newline in sight, > 32 bytes
  EXPECT_EQ(c.recv_line(), std::optional<std::string>("ok:short"));
  EXPECT_EQ(c.recv_line(), std::optional<std::string>("TOO-LONG"));
  EXPECT_EQ(c.recv_line(), std::nullopt);  // connection closed
  EXPECT_EQ(server.stats().closed_overlong, 1u);
}

TEST(LineServer, OverlongTerminatedLineInOneBatchStillCloses) {
  // Regression: the cap used to be enforced only on the UNTERMINATED
  // tail of the read buffer, so an overlong line whose '\n' arrived in
  // the same recv() batch sailed straight into the handler. The cap must
  // apply to extracted lines too: answer the error at the line's slot,
  // close after the flush, and never admit anything pipelined behind it.
  std::atomic<int> handled_long{0};
  LineServerConfig cfg;
  cfg.workers = 1;
  cfg.max_line_bytes = 32;
  cfg.overlong_response = "TOO-LONG";
  cfg.handler = [&](const std::string& line) {
    if (line.size() > 32) ++handled_long;
    return "ok:" + line;
  };
  LineServer server(std::move(cfg));
  server.start();

  TestClient c(server.port());
  // ONE batch: a good line, a terminated overlong line, a line behind it.
  c.send_raw("short\n" + std::string(100, 'a') + "\nafter\n");
  EXPECT_EQ(c.recv_line(), std::optional<std::string>("ok:short"));
  EXPECT_EQ(c.recv_line(), std::optional<std::string>("TOO-LONG"));
  EXPECT_EQ(c.recv_line(), std::nullopt);  // closed; "after" never answered
  EXPECT_EQ(handled_long.load(), 0);       // the handler never saw it
  const LineServer::Stats s = server.stats();
  EXPECT_EQ(s.closed_overlong, 1u);
  EXPECT_EQ(s.served, 1u);  // only "short"
}

TEST(LineServer, CrlfAndBlankLinesAreTolerated) {
  LineServerConfig cfg;
  cfg.workers = 1;
  cfg.handler = [](const std::string& line) { return "ok:" + line; };
  LineServer server(std::move(cfg));
  server.start();

  TestClient c(server.port());
  c.send_raw("a\r\n\r\n\nb\n");
  EXPECT_EQ(c.recv_line(), std::optional<std::string>("ok:a"));
  EXPECT_EQ(c.recv_line(), std::optional<std::string>("ok:b"));
  EXPECT_EQ(server.stats().served, 2u);  // blank lines were never admitted
}

TEST(LineServer, GracefulShutdownDrainsEveryAdmittedRequest) {
  Gate gate;
  LineServerConfig cfg;
  cfg.workers = 1;
  cfg.handler = [&](const std::string& line) {
    if (line == "block") gate.block();
    return "ok:" + line;
  };
  LineServer server(std::move(cfg));
  server.start();

  TestClient c(server.port());
  c.send_raw("block\nq1\nq2\n");
  gate.wait_entered(1);
  while (server.stats().requests < 3)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  // Shutdown with one request stuck in the handler and two queued: all
  // three must still be answered and flushed before join() returns.
  server.shutdown();
  server.shutdown();  // idempotent
  gate.release();
  server.join();

  EXPECT_EQ(c.recv_line(), std::optional<std::string>("ok:block"));
  EXPECT_EQ(c.recv_line(), std::optional<std::string>("ok:q1"));
  EXPECT_EQ(c.recv_line(), std::optional<std::string>("ok:q2"));
  EXPECT_EQ(c.recv_line(), std::nullopt);  // server is gone
  EXPECT_EQ(server.stats().served, 3u);
}

TEST(LineServer, ConstructorValidatesConfig) {
  LineServerConfig no_handler;
  EXPECT_THROW(LineServer{std::move(no_handler)}, std::invalid_argument);
  LineServerConfig no_workers;
  no_workers.workers = 0;
  no_workers.handler = [](const std::string&) { return std::string(); };
  EXPECT_THROW(LineServer{std::move(no_workers)}, std::invalid_argument);
  // An ephemeral bind resolves to a real port.
  LineServerConfig ok;
  ok.handler = [](const std::string&) { return std::string("x"); };
  LineServer server(std::move(ok));
  EXPECT_GT(server.port(), 0);
}

/// Blocking length-prefixed-frame client for FrameServer tests.
class FrameClient {
 public:
  explicit FrameClient(std::uint16_t port) : c_(port) {}

  void send_frame(const std::string& payload) {
    c_.send_raw(frame_encode(payload));
  }
  void send_raw(const std::string& bytes) { c_.send_raw(bytes); }
  /// Half-close: the server answers what it owes, then closes.
  void finish_sending() { c_.finish_sending(); }

  /// One response frame payload; nullopt when the server closed.
  std::optional<std::string> recv_frame() {
    const auto header = c_.recv_exact(kFrameHeaderBytes);
    if (!header) return std::nullopt;
    std::uint32_t len = 0;
    for (int i = 3; i >= 0; --i)
      len = (len << 8) | static_cast<unsigned char>((*header)[i]);
    if (len == 0) return std::string();
    return c_.recv_exact(len);
  }

 private:
  TestClient c_;
};

TEST(FrameServer, EchoesBinaryPayloadsInRequestOrder) {
  FrameServerConfig cfg;
  cfg.workers = 4;
  cfg.handler = [](const std::string& payload) {
    return "echo:" + payload;
  };
  FrameServer server(std::move(cfg));
  server.start();

  FrameClient c(server.port());
  // Payloads with embedded '\n' and '\0' — exactly what line framing
  // cannot carry — pipelined in one burst.
  std::vector<std::string> payloads = {
      std::string("a\nb"), std::string("c\0d", 3), std::string(),
      std::string(1000, '\xff')};
  for (const auto& p : payloads) c.send_frame(p);
  for (const auto& p : payloads) {
    const auto resp = c.recv_frame();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(*resp, "echo:" + p);
  }
  const FrameServer::Stats s = server.stats();
  EXPECT_EQ(s.served, payloads.size());
  EXPECT_EQ(s.shed, 0u);
}

TEST(FrameServer, PartialHeaderAndPayloadChunksReassemble) {
  FrameServerConfig cfg;
  cfg.workers = 1;
  cfg.handler = [](const std::string& payload) { return payload + "!"; };
  FrameServer server(std::move(cfg));
  server.start();

  FrameClient c(server.port());
  const std::string wire = frame_encode("hello");
  // Drip the frame byte by byte: header split, payload split.
  for (char b : wire) {
    c.send_raw(std::string(1, b));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(c.recv_frame(), std::optional<std::string>("hello!"));
}

TEST(FrameServer, OversizedFrameAnswersFatalThenCloses) {
  std::atomic<int> handled{0};
  FrameServerConfig cfg;
  cfg.workers = 1;
  cfg.max_frame_bytes = 64;
  cfg.fatal_response = "FATAL";
  cfg.handler = [&](const std::string& payload) {
    ++handled;
    return payload;
  };
  FrameServer server(std::move(cfg));
  server.start();

  FrameClient c(server.port());
  c.send_frame("fine");
  // A header declaring a 1 MB frame: fatal on sight — the body is never
  // even sent, so the server must not wait for it.
  c.send_raw(std::string("\x00\x00\x10\x00", 4));  // 0x00100000 LE
  EXPECT_EQ(c.recv_frame(), std::optional<std::string>("fine"));
  EXPECT_EQ(c.recv_frame(), std::optional<std::string>("FATAL"));
  EXPECT_EQ(c.recv_frame(), std::nullopt);  // connection closed
  EXPECT_EQ(handled.load(), 1);
  EXPECT_EQ(server.stats().closed_protocol, 1u);
}

TEST(FrameServer, BoundedQueueShedsWithBusyFrame) {
  Gate gate;
  FrameServerConfig cfg;
  cfg.workers = 1;
  cfg.max_pending = 1;
  cfg.busy_response = "BUSY";
  cfg.handler = [&](const std::string& payload) {
    if (payload == "block") gate.block();
    return "ok:" + payload;
  };
  FrameServer server(std::move(cfg));
  server.start();

  FrameClient c(server.port());
  c.send_frame("block");
  gate.wait_entered(1);
  c.send_frame("q1");
  c.send_frame("q2");
  c.send_frame("q3");
  while (server.stats().requests < 4)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_EQ(server.stats().shed, 2u);
  gate.release();

  const char* want[] = {"ok:block", "ok:q1", "BUSY", "BUSY"};
  for (const char* w : want) {
    const auto resp = c.recv_frame();
    ASSERT_TRUE(resp.has_value());
    EXPECT_EQ(*resp, w);
  }
}

// ---- Fuzz: frame extraction against a model of the framing ----
//
// Each connection sends a script, split into chunks at random and sent
// with separate writes: random bytes, valid frames (payloads of 0 bytes,
// of exactly max_frame_bytes and between), valid frames cut short, or
// valid frames followed by a header declaring max_frame_bytes + 1 or more.
// The model below reads the script as the server must: every complete
// frame is answered in order, and a header over the limit is answered
// with the fatal response, after which the connection closes. Three
// connections run at once, and a control connection that stays open is
// served after every round.

constexpr std::size_t kFuzzMaxFrame = 200;

std::string frame_header(std::uint32_t len) {
  std::string h(kFrameHeaderBytes, '\0');
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i)
    h[i] = static_cast<char>((len >> (8 * i)) & 0xFF);
  return h;
}

std::string random_bytes(Rng& rng, std::size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.next_u32());
  return s;
}

/// What the server owes a script: the echo of each complete frame, then
/// the fatal response if a header declares more than kFuzzMaxFrame.
/// `end` is where the script stops being read (just past a fatal header).
struct FrameModel {
  std::vector<std::string> responses;
  bool fatal = false;
  std::size_t end = 0;
};

FrameModel model_frames(const std::string& wire) {
  FrameModel m;
  std::size_t pos = 0;
  while (wire.size() - pos >= kFrameHeaderBytes) {
    std::uint32_t len = 0;
    for (std::size_t i = 0; i < kFrameHeaderBytes; ++i)
      len |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(wire[pos + i]))
             << (8 * i);
    if (len > kFuzzMaxFrame) {
      m.fatal = true;
      m.end = pos + kFrameHeaderBytes;
      return m;
    }
    if (wire.size() - pos - kFrameHeaderBytes < len) break;
    m.responses.push_back("echo:" +
                          wire.substr(pos + kFrameHeaderBytes, len));
    pos += kFrameHeaderBytes + len;
  }
  m.end = wire.size();
  return m;
}

std::string fuzz_script(Rng& rng) {
  const auto valid_frames = [&] {
    std::string wire;
    const std::uint64_t frames = 1 + rng.below(5);
    for (std::uint64_t f = 0; f < frames; ++f) {
      const std::uint64_t pick = rng.below(4);
      const std::size_t len = pick == 0   ? 0
                              : pick == 1 ? kFuzzMaxFrame
                                          : rng.below(kFuzzMaxFrame);
      wire += frame_header(static_cast<std::uint32_t>(len)) +
              random_bytes(rng, len);
    }
    return wire;
  };
  switch (rng.below(4)) {
    case 0:
      return random_bytes(rng, 1 + rng.below(64));
    case 1:
      return valid_frames();
    case 2: {
      const std::string wire = valid_frames();
      return wire.substr(0, rng.below(wire.size()));
    }
    default: {
      const std::uint32_t over =
          rng.chance(0.5) ? kFuzzMaxFrame + 1
                          : kFuzzMaxFrame + 1 +
                                static_cast<std::uint32_t>(rng.below(
                                    0xFFFFFFFFull - kFuzzMaxFrame));
      return valid_frames() + frame_header(over);
    }
  }
}

TEST(FrameServerFuzz, FramesAnswerInOrderOrCloseAfterAnOversizedHeader) {
  FrameServerConfig cfg;
  cfg.workers = 2;
  cfg.max_frame_bytes = kFuzzMaxFrame;
  cfg.fatal_response = "FATAL";
  cfg.handler = [](const std::string& payload) { return "echo:" + payload; };
  FrameServer server(std::move(cfg));
  server.start();

  Rng rng(0xF4A3E5EEDull);  // deterministic: any failure reproduces
  FrameClient control(server.port());
  std::uint64_t echoes = 0, fatals = 0;
  for (int round = 0; round < 100; ++round) {
    std::vector<FrameClient> clients;
    clients.reserve(3);
    std::vector<std::vector<std::string>> chunks;
    std::vector<FrameModel> models;
    for (int k = 0; k < 3; ++k) {
      std::string wire = fuzz_script(rng);
      FrameModel m = model_frames(wire);
      wire.resize(m.end);  // nothing follows a fatal header
      std::vector<std::string> parts;
      for (std::size_t pos = 0; pos < wire.size();) {
        const std::size_t n = 1 + rng.below(wire.size() - pos);
        parts.push_back(wire.substr(pos, n));
        pos += n;
      }
      clients.emplace_back(server.port());
      chunks.push_back(std::move(parts));
      models.push_back(std::move(m));
    }
    // Interleave the connections' writes.
    for (std::size_t i = 0;; ++i) {
      bool sent = false;
      for (std::size_t k = 0; k < clients.size(); ++k)
        if (i < chunks[k].size()) {
          clients[k].send_raw(chunks[k][i]);
          sent = true;
        }
      if (!sent) break;
    }
    for (std::size_t k = 0; k < clients.size(); ++k) {
      if (!models[k].fatal) clients[k].finish_sending();
      for (const std::string& want : models[k].responses)
        ASSERT_EQ(clients[k].recv_frame(), std::optional<std::string>(want))
            << "round " << round << ", connection " << k;
      if (models[k].fatal) {
        ASSERT_EQ(clients[k].recv_frame(), std::optional<std::string>("FATAL"))
            << "round " << round << ", connection " << k;
      }
      ASSERT_EQ(clients[k].recv_frame(), std::nullopt)
          << "round " << round << ", connection " << k << " stayed open";
      echoes += models[k].responses.size();
      fatals += models[k].fatal ? 1 : 0;
    }
    const std::string ping = "ping-" + std::to_string(round);
    control.send_frame(ping);
    ASSERT_EQ(control.recv_frame(), std::optional<std::string>("echo:" + ping));
  }
  EXPECT_GT(echoes, 100u);
  EXPECT_GT(fatals, 20u);
  const FrameServer::Stats s = server.stats();
  EXPECT_EQ(s.served, echoes + 100);
  EXPECT_EQ(s.closed_protocol, fatals);
  EXPECT_EQ(s.shed, 0u);
}

TEST(FrameServer, ConstructorValidatesConfig) {
  FrameServerConfig no_handler;
  EXPECT_THROW(FrameServer{std::move(no_handler)}, std::invalid_argument);
  FrameServerConfig no_workers;
  no_workers.workers = 0;
  no_workers.handler = [](const std::string&) { return std::string(); };
  EXPECT_THROW(FrameServer{std::move(no_workers)}, std::invalid_argument);
  FrameServerConfig ok;
  ok.handler = [](const std::string&) { return std::string("x"); };
  FrameServer server(std::move(ok));
  EXPECT_GT(server.port(), 0);
}

}  // namespace
}  // namespace cms::net
