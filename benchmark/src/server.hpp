// The benchmark's view of a running plan_server: the spawned process, a
// blocking line-protocol connection, field picking from its one-line
// JSON responses, and the /proc counters (peak RSS, CPU time) the
// end-to-end metrics read.
#pragma once

#include <poll.h>
#include <sys/types.h>

#include <cstdint>
#include <deque>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace cmsbench {

/// A failed run: the harness prints a result with correct = false (or no
/// result at all, before the server is up) and exits nonzero.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// One example_plan_server child in socket mode, listening on an
/// ephemeral port. The child is bound to this process (it receives
/// SIGKILL if the harness dies) and is always reaped: stop() drains it
/// with SIGTERM, the destructor kills whatever is left.
class ServerProc {
 public:
  /// Spawns `bin` with `args` plus `--port 0 --port-file <dir>/port`, its
  /// stderr appended to <dir>/server.log, and waits until the port file
  /// names the listening port. Throws BenchError when the child exits or
  /// the port does not appear within 30 s.
  ServerProc(const std::string& bin, const std::vector<std::string>& args,
             const std::string& dir);
  ~ServerProc();
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// Peak resident set (VmHWM) of the server, in MiB.
  double peak_rss_mb() const;
  /// User + system CPU seconds the server has consumed so far.
  double cpu_seconds() const;
  /// Binds every thread of the server to CPU `cpu`; threads it starts
  /// later inherit the binding.
  void pin(int cpu) const;

  /// Graceful drain (SIGTERM, then wait). Throws BenchError unless the
  /// server exits 0 within 20 s.
  void stop();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// One blocking TCP connection to 127.0.0.1 speaking the line protocol.
class Connection {
 public:
  explicit Connection(std::uint16_t port);
  ~Connection();
  Connection(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  Connection& operator=(Connection&&) = delete;

  int fd() const { return fd_; }
  void send_line(const std::string& line);
  /// Blocks until one whole response line is buffered; newline stripped.
  std::string recv_line();
  /// Reads whatever the socket holds without blocking and moves every
  /// complete line into `out`. Throws BenchError on a closed connection.
  void drain_lines(std::vector<std::string>& out);
  std::string request(const std::string& line) {
    send_line(line);
    return recv_line();
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

/// A few pipelined connections driven from one thread: each request goes
/// to the connection with the fewest unanswered requests, and each answer
/// is matched to its request by order (the server answers every
/// connection in request order).
class ConnPool {
 public:
  ConnPool(std::uint16_t port, std::size_t n);
  /// Sends `line` as request `id`.
  void send(std::size_t id, const std::string& line);
  /// Waits up to `wait_ms` for answers and calls `on_answer(id, line)` for
  /// each as it is read. Returns how many arrived.
  std::size_t poll(double wait_ms,
                   const std::function<void(std::size_t, std::string)>&
                       on_answer);

 private:
  std::vector<Connection> conns_;
  std::vector<std::deque<std::size_t>> open_;
  std::vector<pollfd> fds_;
};

// The server's responses are flat one-line JSON objects whose field names
// are unique within the line, so a substring probe finds them.

/// `"key": "value"`; empty when absent.
std::string json_str(const std::string& js, const std::string& key);
/// `"key": <number>`; `def` when absent.
double json_num(const std::string& js, const std::string& key,
                double def = -1.0);
bool json_ok(const std::string& js);

/// VmHWM of the calling process, in MiB.
double self_peak_rss_mb();

}  // namespace cmsbench
