// Socket-front-end load generator and acceptance check (the end-to-end
// proof of the sweep-coalescing + net-layer PR): spawns a REAL
// example_plan_server process in socket mode, drives it over TCP, and
// asserts the one property the whole front end exists for —
//
//   a burst of N concurrent same-capture, MIXED-GRID plan requests
//   executes EXACTLY ONE union-grid replay sweep, and every response is
//   bit-identical (plan_digest) to the answer an uncoalesced sequential
//   request gets
//
// — counter-asserted through the server's own `stats` line, so the bench
// exits nonzero if the server ever replays more than once per burst or
// answers with different bits. The plan cache is OFF for the whole run:
// every repeat must be a real sweep, so the sweeps_started delta
// measures coalescing and nothing else.
//
// Phases (all over the wire, exactly as a client fleet would see them):
//  1. COLD      one request captures + stores the scenario's jitter runs
//  2. REFERENCE each distinct client grid requested SEQUENTIALLY; the
//               plan_digest of each is the bit-identity reference
//  3. BURST     N pre-connected clients (then 2N) fire one mixed-grid
//               request each through a start barrier; asserts
//               sweeps_started delta == 1, exactly one "leader" role,
//               N-1 "coalesced" roles, union_points == |union grid|, and
//               every digest equal to its sequential reference
//  4. DRAIN     SIGTERM the server; it must exit 0 (graceful drain)
//  5. OVERLOAD  a second tiny server (1 worker, max-pending 2): six
//               requests PIPELINED in one write must shed at least one
//               with the busy error (bounded queue), and a request
//               pipelined behind a slow one with deadline_ms=1 must come
//               back as "deadline expired in queue" without planning
//               (per-connection ordering makes both deterministic)
//
//   ./micro_plan_server [--server-bin PATH] [--trace-dir DIR]
//                       [--clients N] [--coalesce-window-ms X] [--jobs N]
//                       [--scenario S]
//
// Flags: --server-bin PATH         plan_server binary (default: the
//                                  example_plan_server next to this bench)
//        --trace-dir D             store dir handed to the server
//                                  (default micro_plan_server.traces)
//        --clients N               first-burst size (2..256, default 8;
//                                  the second burst doubles it)
//        --coalesce-window-ms X    server merge window (default 250 —
//                                  generous enough that a whole burst is
//                                  admitted within it on a loaded 1-core
//                                  CI box; the window is an unconditional
//                                  hold, so this is NOT a race to win)
//        --jobs N                  campaign workers inside the server
//        --scenario S              scenario to hammer (default mpeg2-tiny)
//
// Output: one JSON object on stdout (CI redirects it to
// BENCH_plan_server.json); "ok": false and exit 1 on any violated
// assertion.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/cli.hpp"

using namespace cms;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "micro_plan_server: FAIL: %s\n", msg.c_str());
  // The JSON contract: CI parses stdout, humans read stderr. Emit a
  // minimal failing object so a redirected run still yields valid JSON.
  std::printf("{\"bench\": \"micro_plan_server\", \"ok\": false, "
              "\"error\": \"%s\"}\n",
              msg.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------- server

/// The spawned plan_server process. Owns the pid: SIGTERM + bounded wait
/// on terminate(), SIGKILL from the destructor if the test bailed early.
class ServerProc {
 public:
  ServerProc(const std::string& bin, const std::vector<std::string>& args) {
    std::vector<std::string> full;
    full.push_back(bin);
    full.insert(full.end(), args.begin(), args.end());
    std::vector<char*> argv;
    argv.reserve(full.size() + 1);
    for (std::string& a : full) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) die("fork() failed");
    if (pid_ == 0) {
      ::execv(bin.c_str(), argv.data());
      std::fprintf(stderr, "micro_plan_server: execv(%s) failed: %s\n",
                   bin.c_str(), std::strerror(errno));
      ::_exit(127);
    }
  }

  ~ServerProc() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  /// True (and reaps) when the child already exited — the port-file wait
  /// uses it to fail fast instead of spinning on a dead server.
  bool exited_early() {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return false;
  }

  /// SIGTERM + graceful-drain wait; returns the exit code (or -1 when the
  /// server had to be SIGKILLed after `timeout_ms`).
  int terminate(int timeout_ms = 20000) {
    if (pid_ <= 0) return -1;
    ::kill(pid_, SIGTERM);
    const auto t0 = Clock::now();
    int status = 0;
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (ms_since(t0) > timeout_ms) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    pid_ = -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

 private:
  pid_t pid_ = -1;
};

/// Poll `path` until the server writes its resolved port there.
std::uint16_t wait_for_port(const std::string& path, ServerProc& server) {
  const auto t0 = Clock::now();
  while (ms_since(t0) < 30000.0) {
    if (server.exited_early()) die("server exited before writing " + path);
    std::ifstream f(path);
    unsigned port = 0;
    if (f >> port && port > 0 && port <= 65535)
      return static_cast<std::uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  die("timed out waiting for port file " + path);
}

// ---------------------------------------------------------------- client

/// One blocking TCP connection speaking the line protocol.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) die("socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
      die("connect() to 127.0.0.1:" + std::to_string(port) + " failed");
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(Client&& other) noexcept : fd_(other.fd_), buf_(std::move(other.buf_)) {
    other.fd_ = -1;
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Send raw bytes (used to PIPELINE several request lines in one write,
  /// which makes the overload phases deterministic: every line is
  /// admitted in one parse pass while the single worker is still busy
  /// with the first).
  void send_raw(const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) die("send() failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Read one response line (newline stripped).
  std::string recv_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) die("server closed the connection mid-response");
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  std::string request(const std::string& line) {
    send_raw(line + "\n");
    return recv_line();
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// ------------------------------------------------------- response picking

/// `"key": "value"` — empty when absent (the responses are flat enough
/// that a substring probe is unambiguous).
std::string json_str(const std::string& js, const std::string& key) {
  const std::string pat = "\"" + key + "\": \"";
  const std::size_t at = js.find(pat);
  if (at == std::string::npos) return {};
  const std::size_t start = at + pat.size();
  const std::size_t end = js.find('"', start);
  return end == std::string::npos ? std::string() : js.substr(start, end - start);
}

/// `"key": 123` — -1 when absent.
long long json_int(const std::string& js, const std::string& key) {
  const std::string pat = "\"" + key + "\": ";
  const std::size_t at = js.find(pat);
  if (at == std::string::npos) return -1;
  return std::atoll(js.c_str() + at + pat.size());
}

bool json_ok(const std::string& js) {
  return js.find("\"ok\": true") != std::string::npos;
}

// ---------------------------------------------------------------- phases

struct GridSpec {
  std::vector<std::uint32_t> sizes;
  std::string digest;  // sequential reference, filled by the REFERENCE phase

  std::string csv() const {
    std::string out;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(sizes[i]);
    }
    return out;
  }
};

std::string plan_line(const std::string& scenario, const GridSpec& g) {
  return "plan " + scenario + " grid=" + g.csv() + " runs=2";
}

struct BurstStats {
  unsigned clients = 0;
  long long sweeps_delta = 0;
  unsigned leaders = 0;
  unsigned coalesced = 0;
  bool identical = true;
  double wall_ms = 0.0;
  double min_ms = 0.0, p50_ms = 0.0, max_ms = 0.0;
};

/// Fire one request per pre-connected client through a start barrier and
/// check roles + digests against the sequential references.
BurstStats run_burst(std::uint16_t port, Client& control, unsigned n,
                     const std::string& scenario,
                     const std::vector<GridSpec>& grids) {
  BurstStats out;
  out.clients = n;
  const long long sweeps_before = json_int(control.request("stats"),
                                           "sweeps_started");

  std::vector<Client> conns;
  conns.reserve(n);
  for (unsigned i = 0; i < n; ++i) conns.emplace_back(port);

  std::vector<std::string> responses(n);
  std::vector<double> lat(n, 0.0);
  std::atomic<unsigned> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(n);
  const auto t0 = Clock::now();
  for (unsigned i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      const std::string line = plan_line(scenario, grids[i % grids.size()]);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      const auto ts = Clock::now();
      responses[i] = conns[i].request(line);
      lat[i] = ms_since(ts);
    });
  }
  while (ready.load() < n) std::this_thread::yield();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  out.wall_ms = ms_since(t0);

  for (unsigned i = 0; i < n; ++i) {
    const GridSpec& g = grids[i % grids.size()];
    if (!json_ok(responses[i]))
      die("burst response not ok: " + responses[i]);
    const std::string role = json_str(responses[i], "sweep");
    if (role == "leader")
      ++out.leaders;
    else if (role == "coalesced")
      ++out.coalesced;
    else
      die("burst response has unexpected sweep role '" + role +
          "' (plan cache should be off): " + responses[i]);
    if (json_str(responses[i], "plan_digest") != g.digest) {
      out.identical = false;
      std::fprintf(stderr,
                   "micro_plan_server: digest mismatch for grid=%s\n  got "
                   "%s\n  want %s\n",
                   g.csv().c_str(),
                   json_str(responses[i], "plan_digest").c_str(),
                   g.digest.c_str());
    }
  }
  out.sweeps_delta =
      json_int(control.request("stats"), "sweeps_started") - sweeps_before;

  std::vector<double> sorted = lat;
  std::sort(sorted.begin(), sorted.end());
  out.min_ms = sorted.front();
  out.p50_ms = sorted[sorted.size() / 2];
  out.max_ms = sorted.back();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string server_bin = core::parse_string_flag(argc, argv, "--server-bin");
  if (server_bin.empty()) {
    // Default: example_plan_server next to this binary (both live in the
    // build directory).
    const std::string self = argv[0];
    const std::size_t slash = self.find_last_of('/');
    server_bin = (slash == std::string::npos ? std::string(".")
                                             : self.substr(0, slash)) +
                 "/example_plan_server";
  }
  std::string dir = core::parse_trace_dir(argc, argv);
  if (dir.empty()) dir = "micro_plan_server.traces";
  unsigned clients = static_cast<unsigned>(
      core::parse_u64_flag(argc, argv, "--clients", 8));
  if (clients < 2 || clients > 256) {
    std::fprintf(stderr, "warning: clamping --clients into [2, 256]\n");
    clients = clients < 2 ? 2 : 256;
  }
  const double window = core::parse_coalesce_window_ms(argc, argv, 250.0);
  const unsigned jobs = core::parse_jobs(argc, argv, 1);
  std::string scenario = core::parse_string_flag(argc, argv, "--scenario");
  if (scenario.empty()) scenario = "mpeg2-tiny";
  core::warn_unknown_flags(argc, argv);

  // Mixed client grids, all subsets of one union (client 0 carries the
  // full union, so whoever leads, the union sweep covers everyone). The
  // sizes are valid for every *-tiny scenario (32 KB L2).
  const std::vector<std::uint32_t> union_grid = {1, 2, 4, 8, 16};
  std::vector<GridSpec> grids;
  grids.push_back({{1, 2, 4, 8, 16}, {}});
  grids.push_back({{1, 4, 16}, {}});
  grids.push_back({{2, 8}, {}});
  grids.push_back({{4, 8, 16}, {}});

  const std::string port_file = dir + ".port";
  ::unlink(port_file.c_str());
  // Plan cache OFF: repeats must be real sweeps or the sweeps_started
  // delta would measure cache hits, not coalescing. Workers must cover
  // the biggest burst — a follower BLOCKS its worker while it waits on
  // the leader's sweep, so fewer workers than clients would serialize
  // the tail of the burst behind the window.
  ServerProc server(
      server_bin,
      {"--trace-dir", dir, "--trace", "rw", "--plan-cache", "off", "--port",
       "0", "--port-file", port_file, "--net-workers",
       std::to_string(2 * clients), "--max-pending", "1024",
       "--coalesce-window-ms", std::to_string(window), "--jobs",
       std::to_string(jobs)});
  const std::uint16_t port = wait_for_port(port_file, server);
  Client control(port);

  // Phase 1: COLD — capture + store the scenario's jitter runs once.
  const auto tc = Clock::now();
  GridSpec full = grids[0];
  const std::string cold = control.request(plan_line(scenario, full));
  if (!json_ok(cold)) die("cold request failed: " + cold);
  const double cold_ms = ms_since(tc);

  // Phase 2: REFERENCE — each distinct grid sequentially; these digests
  // are what the coalesced burst answers must match bit-for-bit.
  const auto tr = Clock::now();
  for (GridSpec& g : grids) {
    const std::string resp = control.request(plan_line(scenario, g));
    if (!json_ok(resp)) die("reference request failed: " + resp);
    if (json_str(resp, "sweep") != "leader")
      die("sequential reference unexpectedly coalesced: " + resp);
    g.digest = json_str(resp, "plan_digest");
    if (g.digest.empty()) die("reference response lacks plan_digest: " + resp);
  }
  const double ref_ms = ms_since(tr);

  // Phase 3: BURSTS — the acceptance assertion, at two client counts:
  // the number of replay sweeps is 1 per burst, INDEPENDENT of how many
  // clients piled in.
  bool ok = true;
  std::vector<BurstStats> bursts;
  for (const unsigned n : {clients, 2 * clients}) {
    BurstStats b = run_burst(port, control, n, scenario, grids);
    if (b.sweeps_delta != 1) {
      std::fprintf(stderr,
                   "micro_plan_server: FAIL: burst of %u executed %lld "
                   "sweeps (want exactly 1)\n",
                   n, b.sweeps_delta);
      ok = false;
    }
    if (b.leaders != 1 || b.coalesced != n - 1) {
      std::fprintf(stderr,
                   "micro_plan_server: FAIL: burst of %u: %u leaders + %u "
                   "coalesced (want 1 + %u)\n",
                   n, b.leaders, b.coalesced, n - 1);
      ok = false;
    }
    if (!b.identical) ok = false;
    bursts.push_back(b);
  }
  const long long saved =
      json_int(control.request("stats"), "union_points_saved");

  // Phase 4: DRAIN — SIGTERM must flush everything and exit 0.
  const int exit_code = server.terminate();
  if (exit_code != 0) {
    std::fprintf(stderr,
                 "micro_plan_server: FAIL: server exit code %d after "
                 "SIGTERM (want graceful 0)\n",
                 exit_code);
    ok = false;
  }

  // Phase 5: OVERLOAD — a deliberately tiny server (1 worker, 2 queue
  // slots, no merge window). Pipelining puts every line in the admission
  // path while the worker is still busy with the first, which makes both
  // checks deterministic; per-connection ordering maps responses back.
  ::unlink(port_file.c_str());
  ServerProc tiny(server_bin,
                  {"--trace-dir", dir, "--trace", "rw", "--plan-cache", "off",
                   "--port", "0", "--port-file", port_file, "--net-workers",
                   "1", "--max-pending", "2", "--jobs", "1"});
  const std::uint16_t tiny_port = wait_for_port(port_file, tiny);
  long long shed = 0, deadline_expired = 0;
  {
    Client c(tiny_port);
    const std::string line = plan_line(scenario, grids[0]);
    std::string pipelined;
    for (int i = 0; i < 6; ++i) pipelined += line + "\n";
    c.send_raw(pipelined);
    unsigned busy = 0, served = 0;
    for (int i = 0; i < 6; ++i) {
      const std::string resp = c.recv_line();
      if (resp.find("busy") != std::string::npos)
        ++busy;
      else if (json_ok(resp))
        ++served;
      else
        die("overload phase: unexpected response: " + resp);
    }
    // The queue holds 2; whether the worker has dequeued the first line
    // by the time the last is parsed decides if a third slot freed up, so
    // 2 or 3 served are both correct — but with six lines admitted in one
    // parse pass, at least one MUST shed and the queue's worth MUST serve.
    if (busy < 1 || served < 2) {
      std::fprintf(stderr,
                   "micro_plan_server: FAIL: overload burst: %u busy / %u "
                   "served (want >=1 / >=2)\n",
                   busy, served);
      ok = false;
    }
  }
  {
    Client c(tiny_port);
    // The deadline_ms=1 request is pipelined BEHIND a sweep of 16 jitter
    // runs on the single worker: it sits in the queue for that sweep's
    // whole duration (about 5 ms of replay with every capture stored,
    // tens of ms of capture when they are not; >> 1 ms either way), so it
    // must come back expired, unplanned. A two-run sweep of a tiny
    // scenario replays in under 1 ms, too short to hold the queue.
    c.send_raw("plan " + scenario + " grid=" + grids[0].csv() +
               " runs=16\n" + plan_line(scenario, grids[2]) +
               " deadline_ms=1\n");
    const std::string first = c.recv_line();
    const std::string second = c.recv_line();
    if (!json_ok(first)) die("deadline phase: slow request failed: " + first);
    if (second.find("deadline expired") == std::string::npos) {
      std::fprintf(stderr,
                   "micro_plan_server: FAIL: queued deadline_ms=1 request "
                   "was not expired: %s\n",
                   second.c_str());
      ok = false;
    }
    const std::string stats = c.request("stats");
    shed = json_int(stats, "shed");
    deadline_expired = json_int(stats, "deadline_expired");
    if (deadline_expired < 1) {
      std::fprintf(stderr,
                   "micro_plan_server: FAIL: net.deadline_expired == %lld "
                   "(want >= 1)\n",
                   deadline_expired);
      ok = false;
    }
  }
  const int tiny_exit = tiny.terminate();
  if (tiny_exit != 0) {
    std::fprintf(stderr,
                 "micro_plan_server: FAIL: overload server exit code %d "
                 "after SIGTERM (want 0)\n",
                 tiny_exit);
    ok = false;
  }

  std::printf(
      "{\"bench\": \"micro_plan_server\", \"scenario\": \"%s\", "
      "\"server\": \"%s\", \"coalesce_window_ms\": %.1f, "
      "\"cold_ms\": %.1f, \"reference_ms\": %.1f, \"bursts\": [",
      scenario.c_str(), server_bin.c_str(), window, cold_ms, ref_ms);
  for (std::size_t i = 0; i < bursts.size(); ++i) {
    const BurstStats& b = bursts[i];
    std::printf(
        "%s{\"clients\": %u, \"sweeps\": %lld, \"leaders\": %u, "
        "\"coalesced\": %u, \"identical\": %s, \"wall_ms\": %.1f, "
        "\"lat_ms\": {\"min\": %.1f, \"p50\": %.1f, \"max\": %.1f}}",
        i ? ", " : "", b.clients, b.sweeps_delta, b.leaders, b.coalesced,
        b.identical ? "true" : "false", b.wall_ms, b.min_ms, b.p50_ms,
        b.max_ms);
  }
  std::printf(
      "], \"union_points_saved\": %lld, \"overload\": {\"shed\": %lld, "
      "\"deadline_expired\": %lld}, \"server_exit\": %d, \"ok\": %s}\n",
      saved, shed, deadline_expired, exit_code, ok ? "true" : "false");
  return ok ? 0 : 1;
}
