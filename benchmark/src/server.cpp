#include "server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <thread>

namespace cmsbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// `VmHWM:` of /proc/<who>/status, in MiB.
double vm_hwm_mb(const std::string& who) {
  std::ifstream f("/proc/" + who + "/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  throw BenchError("no VmHWM in /proc/" + who + "/status");
}

}  // namespace

ServerProc::ServerProc(const std::string& bin,
                       const std::vector<std::string>& args,
                       const std::string& dir) {
  const std::string port_file = dir + "/port";
  const std::string log_file = dir + "/server.log";
  ::unlink(port_file.c_str());
  std::vector<std::string> full{bin};
  full.insert(full.end(), args.begin(), args.end());
  for (const char* a : {"--port", "0", "--port-file"}) full.emplace_back(a);
  full.push_back(port_file);
  std::vector<char*> argv;
  for (std::string& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();

  pid_ = ::fork();
  if (pid_ < 0) throw BenchError("fork() failed");
  if (pid_ == 0) {
    // Die with the harness, whatever way it ends.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                           0644);
    const int null = ::open("/dev/null", O_RDWR);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    if (null >= 0) {
      ::dup2(null, STDIN_FILENO);
      ::dup2(null, STDOUT_FILENO);
    }
    ::execv(bin.c_str(), argv.data());
    ::_exit(127);
  }

  const auto t0 = Clock::now();
  while (seconds_since(t0) < 30.0) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw BenchError("plan_server exited during start-up (see " +
                       log_file + ")");
    }
    std::ifstream f(port_file);
    unsigned port = 0;
    if (f >> port && port > 0 && port <= 65535) {
      port_ = static_cast<std::uint16_t>(port);
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  throw BenchError("plan_server did not write " + port_file + " within 30 s");
}

ServerProc::~ServerProc() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  ::waitpid(pid_, &status, 0);
}

double ServerProc::peak_rss_mb() const {
  return vm_hwm_mb(std::to_string(pid_));
}

double ServerProc::cpu_seconds() const {
  // The process CPU clock counts every thread, exited ones included, to
  // the nanosecond; /proc/<pid>/stat counts in 10 ms ticks.
  clockid_t clock;
  timespec ts{};
  if (::clock_getcpuclockid(pid_, &clock) != 0 ||
      ::clock_gettime(clock, &ts) != 0)
    throw BenchError("cannot read the CPU clock of plan_server");
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void ServerProc::pin(int cpu) const {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<unsigned>(cpu), &one);
  const std::string tasks = "/proc/" + std::to_string(pid_) + "/task";
  for (const auto& task : std::filesystem::directory_iterator(tasks)) {
    const pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    if (::sched_setaffinity(tid, sizeof(one), &one) != 0)
      throw BenchError("cannot bind plan_server thread " +
                       std::to_string(tid) + " to CPU " + std::to_string(cpu));
  }
}

void ServerProc::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  const auto t0 = Clock::now();
  int status = 0;
  while (::waitpid(pid_, &status, WNOHANG) == 0) {
    if (seconds_since(t0) > 20.0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      throw BenchError("plan_server did not drain within 20 s of SIGTERM");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw BenchError("plan_server exited uncleanly after SIGTERM");
}

Connection::Connection(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw BenchError("socket() failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    throw BenchError("connect() to 127.0.0.1:" + std::to_string(port) +
                     " failed");
}

Connection::~Connection() {
  if (fd_ >= 0) ::close(fd_);
}

Connection::Connection(Connection&& other) noexcept
    : fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.fd_ = -1;
}

void Connection::send_line(const std::string& line) {
  const std::string bytes = line + "\n";
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) throw BenchError("send() to plan_server failed");
    off += static_cast<std::size_t>(n);
  }
}

std::string Connection::recv_line() {
  for (;;) {
    const std::size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      return line;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) throw BenchError("plan_server closed the connection");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

void Connection::drain_lines(std::vector<std::string>& out) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n == 0) throw BenchError("plan_server closed the connection");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      throw BenchError("recv() from plan_server failed");
    }
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
  std::size_t nl;
  while ((nl = buf_.find('\n')) != std::string::npos) {
    out.push_back(buf_.substr(0, nl));
    buf_.erase(0, nl + 1);
  }
}

ConnPool::ConnPool(std::uint16_t port, std::size_t n) : open_(n) {
  for (std::size_t c = 0; c < n; ++c) {
    conns_.emplace_back(port);
    fds_.push_back({conns_.back().fd(), POLLIN, 0});
  }
}

void ConnPool::send(std::size_t id, const std::string& line) {
  std::size_t best = 0;
  for (std::size_t c = 1; c < conns_.size(); ++c)
    if (open_[c].size() < open_[best].size()) best = c;
  conns_[best].send_line(line);
  open_[best].push_back(id);
}

std::size_t ConnPool::poll(
    double wait_ms,
    const std::function<void(std::size_t, std::string)>& on_answer) {
  const timespec ts{static_cast<time_t>(wait_ms / 1000.0),
                    static_cast<long>(std::fmod(wait_ms, 1000.0) * 1e6)};
  if (::ppoll(fds_.data(), fds_.size(), &ts, nullptr) <= 0) return 0;
  std::size_t answers = 0;
  std::vector<std::string> lines;
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    if ((fds_[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    lines.clear();
    conns_[c].drain_lines(lines);
    for (std::string& line : lines) {
      if (open_[c].empty())
        throw BenchError("plan_server sent an unrequested line: " + line);
      const std::size_t id = open_[c].front();
      open_[c].pop_front();
      on_answer(id, std::move(line));
      ++answers;
    }
  }
  return answers;
}

std::string json_str(const std::string& js, const std::string& key) {
  const std::string pat = "\"" + key + "\": \"";
  const std::size_t at = js.find(pat);
  if (at == std::string::npos) return {};
  const std::size_t start = at + pat.size();
  const std::size_t end = js.find('"', start);
  return end == std::string::npos ? std::string()
                                  : js.substr(start, end - start);
}

double json_num(const std::string& js, const std::string& key, double def) {
  const std::string pat = "\"" + key + "\": ";
  const std::size_t at = js.find(pat);
  if (at == std::string::npos) return def;
  return std::strtod(js.c_str() + at + pat.size(), nullptr);
}

bool json_ok(const std::string& js) {
  return js.rfind("{\"ok\": true", 0) == 0;
}

double self_peak_rss_mb() { return vm_hwm_mb("self"); }

}  // namespace cmsbench
