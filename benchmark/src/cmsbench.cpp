// cmsbench: the repository benchmark. One run drives one workload for a
// fixed time, checks every output, and prints one JSON result line:
//
//   cmsbench --workload W --seed N --seconds S [--trace]
//            --server-bin PATH --work-dir DIR [--out FILE]
//            [--expect-digest HEX]
//
// Without --trace it measures the end-to-end metrics: the three server
// workloads talk to a real example_plan_server over TCP, paper-eval runs
// the simulator in-process. With --trace it prints the per-layer metrics
// instead: the server answers the seeded requests untimed, which supplies
// its own counters, and the same requests are served in-process through
// Pipeline (pipeline.hpp) with a span around every layer call; the spans
// go to --out. benchmark/README.md describes the workloads, the metrics
// and why each was chosen.
#include <sched.h>
#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench/bench_common.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/cli.hpp"
#include "opt/compositionality.hpp"
#include "pipeline.hpp"
#include "server.hpp"
#include "speed.hpp"

namespace cmsbench {
namespace {

namespace fs = std::filesystem;
using cms::Rng;

// ------------------------------------------------------------ constants

/// fleet-mix offered load, requests per second: under a third of the
/// capacity measured with this mix on a 4-vCPU x86-64 VM, so the server
/// keeps up even when the VM's neighbours halve its speed (README.md).
constexpr double kFleetRate = 50.0;
/// fleet-mix: the popular set (one request in five misses the cache).
constexpr std::size_t kPopular = 16;
/// fleet-mix runs are invalid when one send in ten is later than this:
/// the harness did not keep to the schedule. (One in a hundred is not a
/// test of the harness: on an idle 4-vCPU VM a thread that only sleeps
/// until a timer wakes 2 to 7 ms late at the 99th percentile.)
constexpr double kMaxLateP90Ms = 5.0;
/// The traced run must explain the service time within this band.
constexpr double kCoverageLo = 0.85, kCoverageHi = 1.15;
/// Server times below this are too coarse (0.1 ms steps) to compare.
constexpr double kMinComparableMs = 1.0;
/// Closed loops and paper-eval time each operation this many times, in
/// passes spread over the run, and keep its median timing. Every timing
/// is adjusted by the machine's slowdown next to it (speed.hpp); the
/// median drops the odd timing whose probes missed a change of speed.
constexpr int kPasses = 3;
/// Work spread over every CPU (fleet-mix's traffic, the server workloads'
/// set-ups) probes one CPU this often (speed.hpp), in ms.
constexpr double kProbePeriodMs = 100.0;

struct WorkloadDef {
  const char* name;
  /// plan_server flags besides --trace-dir and the port rendezvous.
  std::vector<std::string> server_flags;
  /// Leading operations the outputs digest covers.
  std::size_t digest_prefix;
  /// Latency limit of slo_ok_ratio, in ms.
  double slo_ms;
  /// Set-up repetitions of an end-to-end run; setup_s is their median.
  int setup_reps;
};

const WorkloadDef kWorkloads[] = {
    {"cold-plan",
     {"--jobs", "1", "--net-workers", "4", "--plan-cache", "off",
      "--service-budget-bytes", "1"},
     8, 2500.0, 25},
    {"warm-sweep",
     {"--jobs", "1", "--net-workers", "4", "--plan-cache", "off"},
     24, 400.0, 3},
    {"fleet-mix",
     {"--jobs", "1", "--net-workers", "4", "--plan-cache", "disk"},
     200, 250.0, 3},
    {"paper-eval",
     {"--jobs", "1", "--net-workers", "4", "--plan-cache", "disk"},
     12, 1500.0, 3},
};

const char* const kWarmScenarios[] = {"mpeg2", "jpeg-canny",
                                      "jpeg-canny-fine"};

// ------------------------------------------------------------ options

struct Options {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string server_bin;
  std::string work_dir;
  std::string out;
  std::string expect_digest;
};

// ------------------------------------------------------------ statistics

/// Linear-interpolation quantile (numpy's default); `v` must be
/// non-empty.
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// CPU time this process has used so far, all threads, in ms.
double process_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// ------------------------------------------------------------ report

/// The run's verdict and metrics; print() emits the result line.
class Report {
 public:
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (ok) return;
    if (failures_.size() < 20)
      std::fprintf(stderr, "cmsbench: CHECK FAILED: %s\n", what.c_str());
    failures_.push_back(what);
  }
  bool correct() const { return failures_.empty(); }

  /// Records `name`; an empty sample or a non-finite value is a failure.
  void metric(const std::string& name, double value, const char* unit) {
    check(std::isfinite(value), "metric " + name + " is not finite");
    metrics_.emplace_back(name, std::isfinite(value) ? value : 0.0, unit);
  }
  void quantile_metric(const std::string& name, const std::vector<double>& v,
                       double q, const char* unit) {
    check(!v.empty(), "no samples for " + name);
    metric(name, v.empty() ? 0.0 : quantile(v, q), unit);
  }
  void mean_metric(const std::string& name, const std::vector<double>& v,
                   const char* unit) {
    check(!v.empty(), "no samples for " + name);
    metric(name,
           v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           static_cast<double>(v.size()),
           unit);
  }
  /// Σ numerator / Σ denominator, e.g. bytes over seconds.
  void rate_metric(const std::string& name, double num, double den,
                   const char* unit) {
    check(den > 0.0, "no samples for " + name);
    metric(name, den > 0.0 ? num / den : 0.0, unit);
  }

  void print() const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, value, unit] = metrics_[i];
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", name.c_str(), value, unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<std::tuple<std::string, double, std::string>> metrics_;
  std::vector<std::string> failures_;
};

// ------------------------------------------------------------ inputs

void shuffle(Rng& rng, auto& v) {
  using std::swap;  // vector<bool> swaps through its proxy's overload
  for (std::size_t i = v.size(); i > 1; --i) swap(v[i - 1], v[rng.below(i)]);
}

/// Sorted grid of `n` distinct sizes from 1..256. Size 1 is always in
/// it, so every task fits and every plan is feasible.
std::vector<std::uint32_t> random_grid(Rng& rng, std::size_t n) {
  std::set<std::uint32_t> g{1};
  while (g.size() < n) g.insert(static_cast<std::uint32_t>(1 + rng.below(256)));
  return {g.begin(), g.end()};
}

std::uint32_t default_l2(const std::string& scenario) {
  return cms::core::scenarios().get(scenario).experiment.platform.hier.l2.size_bytes;
}

/// Seeded request stream of one workload. Every request it returns is
/// distinct from all earlier ones, so none can hit a plan cache by
/// accident.
class RequestGen {
 public:
  RequestGen(const WorkloadDef& w, std::uint64_t seed)
      : w_(w), rng_(seed ^ 0x636D7362656E6368ull) {}

  /// The requests the server must have answered before traffic starts,
  /// in phases: a phase is sent all at once, phases one after another.
  std::vector<std::vector<Request>> priming() {
    const std::string name = w_.name;
    if (name == "paper-eval") return {{plain("jpeg-canny"), plain("mpeg2")}};
    if (name == "cold-plan") return {};
    std::vector<Request> captures;
    for (const char* s : kWarmScenarios) captures.push_back(plain(s));
    if (name == "warm-sweep") return {captures};
    // fleet-mix: capture first, then plan the popular set from the store.
    for (std::size_t k = 0; k < kPopular; ++k)
      popular_.push_back(warm(kWarmScenarios[rng_.below(3)]));
    return {captures, popular_};
  }

  /// Next closed-loop block (cold-plan, warm-sweep).
  std::vector<Request> block() {
    std::vector<Request> out;
    if (std::string(w_.name) == "cold-plan") {
      // Three mpeg2 to one jpeg-canny, at 0.5x, 1x or 2x the scenario's
      // L2 size, with small grids: capture dominates.
      for (const char* s : {"mpeg2", "mpeg2", "mpeg2", "jpeg-canny"}) {
        const std::string k = s;
        out.push_back(make(s, deal(k + "/points", {4, 6, 8, 10, 12}),
                           default_l2(s) * deal(k + "/l2", {0.5, 1.0, 2.0})));
      }
    } else {
      for (const char* s : kWarmScenarios) out.push_back(warm(s));
    }
    shuffle(rng_, out);
    return out;
  }

  /// fleet-mix traffic: `n` requests in blocks of five, one
  /// cache-missing sweep and four Zipf(1) picks from the popular set in
  /// seeded order; `popular` says which is which. The stream does not
  /// depend on `n`, so shorter runs replay a prefix of longer ones.
  std::vector<Request> fleet(std::size_t n, std::vector<bool>& popular) {
    double total = 0.0;
    for (std::size_t k = 1; k <= kPopular; ++k) total += 1.0 / k;
    std::vector<Request> out;
    popular.clear();
    while (out.size() < n) {
      std::vector<bool> hit = {false, true, true, true, true};
      shuffle(rng_, hit);
      for (const bool h : hit) {
        popular.push_back(h);
        if (!h) {
          out.push_back(warm(kWarmScenarios[rng_.below(3)]));
          continue;
        }
        double u = rng_.next_double() * total;
        std::size_t k = 0;
        while (k + 1 < kPopular && (u -= 1.0 / static_cast<double>(k + 1)) > 0)
          ++k;
        out.push_back(popular_[k]);
      }
    }
    return out;
  }

  /// Seeded arrival offsets (ms) of `n` requests over `seconds`: a
  /// Poisson process conditioned on its count, so every run offers the
  /// same load.
  std::vector<double> arrivals(std::size_t n, double seconds) {
    std::vector<double> t(n);
    for (double& x : t) x = rng_.next_double() * seconds * 1000.0;
    std::sort(t.begin(), t.end());
    return t;
  }

  Rng& rng() { return rng_; }

 private:
  /// Next value of deck `key`. Each pass deals every value once in fresh
  /// seeded order, so a run's requests take the values in equal shares
  /// and seeds differ in order, not in mix.
  double deal(const std::string& key, std::initializer_list<double> values) {
    std::vector<double>& left = decks_[key];
    if (left.empty()) {
      left.assign(values);
      shuffle(rng_, left);
    }
    const double v = left.back();
    left.pop_back();
    return v;
  }

  Request plain(const char* scenario) {
    Request r;
    r.plan.scenario = scenario;
    seen_.insert(r.line());
    return r;
  }

  /// A request no earlier one repeats: `points` grid sizes, an L2 size
  /// (0 keeps the scenario's), and a curvature tolerance dealt from
  /// auto-tune (omitted) and four explicit values.
  Request make(const std::string& scenario, double points, double l2 = 0) {
    for (;;) {
      Request r;
      r.plan.scenario = scenario;
      r.plan.grid = random_grid(rng_, static_cast<std::size_t>(points));
      if (l2 > 0) r.plan.l2_size_bytes = static_cast<std::uint32_t>(l2);
      const double eps =
          deal(scenario + "/eps", {-1.0, 0.001, 0.005, 0.01, 0.02});
      if (eps >= 0) r.plan.curvature_eps = eps;
      if (seen_.insert(r.line()).second) return r;
    }
  }

  /// warm-sweep style: 8 to 64 grid sizes at the scenario's own L2.
  Request warm(const std::string& scenario) {
    return make(scenario, deal(scenario + "/points", {8, 22, 36, 50, 64}));
  }

  const WorkloadDef& w_;
  Rng rng_;
  std::set<std::string> seen_;
  std::map<std::string, std::vector<double>> decks_;
  std::vector<Request> popular_;
};

// ------------------------------------------------------------ server runs

/// One request/response pair as the client saw it: times as measured,
/// and the machine's slowdown while they were (speed.hpp), which the
/// end-to-end metrics divide the server's part of them by. A closed loop
/// keeps the request's median pass.
struct Exchange {
  std::string response;
  double latency_ms = 0.0;  // from when the request was due
  double wire_ms = 0.0;     // from when it was sent
  double late_ms = 0.0;     // sent minus due
  double cpu_ms = 0.0;      // closed loops: server CPU time it took
  double slowdown = 1.0;
};

/// The median of one operation's timings (passes) by scaled latency.
template <typename T>
T median_pass(std::vector<T> passes) {
  std::sort(passes.begin(), passes.end(), [](const T& a, const T& b) {
    return a.latency_ms / a.slowdown < b.latency_ms / b.slowdown;
  });
  return passes[passes.size() / 2];
}

/// Counters of one `stats` line.
struct ServerStats {
  double captured, sweeps_started, sweeps_coalesced, plan_cache_hits,
      union_points_saved, requests, shed, deadline_expired;

  explicit ServerStats(const std::string& js)
      : captured(json_num(js, "captured")),
        sweeps_started(json_num(js, "sweeps_started")),
        sweeps_coalesced(json_num(js, "sweeps_coalesced")),
        plan_cache_hits(json_num(js, "plan_cache_hits")),
        union_points_saved(json_num(js, "union_points_saved")),
        requests(json_num(js, "requests")),
        shed(json_num(js, "shed")),
        deadline_expired(json_num(js, "deadline_expired")) {}
};

/// Send `reqs` spread over up to four connections at once and collect
/// the answers in request order (the set-up's parallel priming).
std::vector<Exchange> send_parallel(std::uint16_t port,
                                    const std::vector<Request>& reqs) {
  std::vector<Exchange> out(reqs.size());
  if (reqs.empty()) return out;
  ConnPool pool(port, std::min<std::size_t>(4, reqs.size()));
  std::vector<Clock::time_point> sent(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    sent[i] = Clock::now();
    pool.send(i, reqs[i].line());
  }
  const auto start = Clock::now();
  for (std::size_t done = 0; done < reqs.size();) {
    if (ms_between(start, Clock::now()) > 120000.0)
      throw BenchError("plan_server did not answer the set-up within 120 s");
    done += pool.poll(1000.0, [&](std::size_t i, std::string line) {
      out[i].response = std::move(line);
      out[i].latency_ms = out[i].wire_ms = ms_between(sent[i], Clock::now());
    });
  }
  return out;
}

struct Traffic {
  std::vector<Request> requests;   // in index order
  std::vector<bool> popular;       // fleet-mix: popular-set request
  std::vector<double> due_ms;      // fleet-mix: arrival offsets
  std::vector<Exchange> exchanges; // same order
  std::size_t sends = 0;           // requests sent, repeats included
  std::size_t failed = 0;          // sends answered ok = false
  double wall_s = 0.0;             // fleet-mix: wall time of the traffic
};

/// Runs between closed-loop requests, untimed: the traced run serves
/// request `i` in-process right after the server answered it.
using AfterEach = std::function<void(std::size_t i, const Request&)>;

/// Closed loop, one client: the next request goes out when the previous
/// answer arrived. The first pass sends whole blocks of new requests for
/// 1/`passes` of `seconds`; each later pass sends the same requests again,
/// in the same order. Every repeat must get the plan the first send got,
/// and a request keeps its median pass.
Traffic closed_loop(const WorkloadDef& w, RequestGen& gen,
                    const ServerProc& srv, double seconds, int passes,
                    const AfterEach& after, Report& rep) {
  Traffic t;
  Connection conn(srv.port()), ctl(srv.port());
  const bool gc = std::string(w.name) == "cold-plan";
  SpeedTrack speed;
  const auto send = [&](const Request& r) {
    const auto due = Clock::now();
    const std::string line = r.line();
    Exchange e;
    const double cpu0 = srv.cpu_seconds();
    const auto sent = Clock::now();
    e.late_ms = ms_between(due, sent);
    e.response = conn.request(line);
    e.latency_ms = e.wire_ms = ms_between(sent, Clock::now());
    e.cpu_ms = (srv.cpu_seconds() - cpu0) * 1000.0;
    ++t.sends;
    t.failed += !json_ok(e.response);
    if (gc) {
      // Untimed: drop the captures so the next request re-captures.
      const std::string g = ctl.request("gc");
      rep.check(json_ok(g) && json_num(g, "evicted_entries") >= 2,
                "gc after a cold request evicted too little: " + g);
    }
    e.slowdown = speed.after_op();
    return e;
  };
  std::vector<std::vector<Exchange>> pass_ex;
  const auto start = Clock::now();
  while (ms_between(start, Clock::now()) < seconds * 1000.0 / passes) {
    for (Request& r : gen.block()) {
      t.requests.push_back(std::move(r));
      pass_ex.push_back({send(t.requests.back())});
      if (after) after(t.requests.size() - 1, t.requests.back());
    }
  }
  for (int p = 1; p < passes; ++p) {
    for (std::size_t i = 0; i < t.requests.size(); ++i) {
      pass_ex[i].push_back(send(t.requests[i]));
      const std::string& again = pass_ex[i].back().response;
      rep.check(json_ok(again) &&
                    json_str(again, "plan_digest") ==
                        json_str(pass_ex[i].front().response, "plan_digest"),
                "request " + std::to_string(i) +
                    " got another plan when repeated: " + again.substr(0, 300));
    }
  }
  for (std::vector<Exchange>& ex : pass_ex)
    t.exchanges.push_back(median_pass(std::move(ex)));
  return t;
}

/// Open loop over four connections from one thread: each request is
/// sent at its seeded arrival time on the connection with the fewest
/// outstanding requests, and timed from that due time. The server's work
/// spreads over every CPU, so a second thread probes them all in turn;
/// the run's slowdown is the median probe.
Traffic open_loop(RequestGen& gen, std::uint16_t port, double seconds) {
  Traffic t;
  t.requests = gen.fleet(
      static_cast<std::size_t>(std::lround(kFleetRate * seconds)), t.popular);
  const std::size_t n = t.sends = t.requests.size();
  t.due_ms = gen.arrivals(n, seconds);
  const std::vector<double>& due_ms = t.due_ms;
  t.exchanges.resize(n);
  std::vector<std::string> lines(n);
  for (std::size_t i = 0; i < n; ++i) lines[i] = t.requests[i].line();

  ConnPool pool(port, 4);
  // Wake for each arrival as close to its due time as the kernel allows
  // (the default 50 us timer slack would add to every latency).
  ::prctl(PR_SET_TIMERSLACK, 1UL);
  std::vector<Clock::time_point> sent_at(n);
  SpeedSampler speed(kProbePeriodMs);
  const auto start = Clock::now();
  const double hard_stop_ms = (seconds + 60.0) * 1000.0;
  std::size_t next = 0, done = 0;
  while (done < n) {
    double now = ms_between(start, Clock::now());
    if (now > hard_stop_ms)
      throw BenchError("fleet-mix traffic did not drain within 60 s");
    while (next < n && due_ms[next] <= now) {
      sent_at[next] = Clock::now();
      pool.send(next, lines[next]);
      t.exchanges[next].late_ms =
          ms_between(start, sent_at[next]) - due_ms[next];
      ++next;
      now = ms_between(start, Clock::now());
    }
    const double wait_ms =
        next < n ? std::max(0.0, due_ms[next] - now) : 100.0;
    done += pool.poll(wait_ms, [&](std::size_t i, std::string line) {
      const auto arrived = Clock::now();
      Exchange& e = t.exchanges[i];
      e.response = std::move(line);
      e.wire_ms = ms_between(sent_at[i], arrived);
      e.latency_ms = ms_between(start, arrived) - due_ms[i];
      t.failed += !json_ok(e.response);
    });
  }
  t.wall_s = ms_between(start, Clock::now()) / 1000.0;
  const double slowdown = speed.stop();
  for (Exchange& e : t.exchanges) e.slowdown = slowdown;
  return t;
}

/// The stats counters the run reads around its traffic.
struct ServerSide {
  std::vector<double> setup_s;  // each over the slowdown while it ran
  std::string store_dir;        // the measured server's store
  std::vector<Exchange> priming_ex;
  Traffic traffic;
  std::string stats_before, stats_after;
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};

void check_plan_response(const std::string& resp, Report& rep) {
  rep.check(json_ok(resp), "request failed: " + resp.substr(0, 300));
  rep.check(resp.find("\"feasible\": true") != std::string::npos,
            "infeasible plan: " + resp.substr(0, 300));
  rep.check(json_str(resp, "plan_digest").size() == 32,
            "response without plan_digest: " + resp.substr(0, 300));
}

/// Set-up (repeated `reps` times on fresh servers, the last one kept)
/// and the timed traffic of a server workload; `passes` as in closed_loop.
/// A closed loop's traffic runs with the harness and every server thread
/// on one CPU, the one its slowdown probes measure.
ServerSide server_run(const Options& o, RequestGen& gen,
                      const std::vector<std::vector<Request>>& phases,
                      double seconds, int reps, int passes,
                      const AfterEach& after, Report& rep) {
  const WorkloadDef& w = *o.workload;
  const bool fleet = std::string(w.name) == "fleet-mix";
  ServerSide s;
  std::unique_ptr<ServerProc> srv;
  // Priming spreads over every CPU, so the CPUs are probed in turn while
  // it runs, as in fleet-mix's traffic.
  SpeedSampler speed(kProbePeriodMs);
  for (int r = 0; r < reps; ++r) {
    if (srv != nullptr) srv->stop();
    const std::string dir = o.work_dir + "/server" + std::to_string(r);
    fs::remove_all(dir);
    fs::create_directories(dir);
    s.store_dir = dir + "/store";
    std::vector<std::string> flags = w.server_flags;
    flags.insert(flags.end(), {"--trace-dir", s.store_dir});
    const auto t0 = Clock::now();
    srv = std::make_unique<ServerProc>(o.server_bin, flags, dir);
    s.priming_ex.clear();
    for (const auto& phase : phases)
      for (Exchange& e : send_parallel(srv->port(), phase))
        s.priming_ex.push_back(std::move(e));
    s.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
    for (const Exchange& e : s.priming_ex) check_plan_response(e.response, rep);
  }
  const double slowdown = speed.stop();
  for (double& t : s.setup_s) t /= slowdown;

  if (!fleet) {
    const int cpu = ::sched_getcpu();
    pin_self(cpu);
    srv->pin(cpu);
  }
  Connection ctl(srv->port());
  s.stats_before = ctl.request("stats");
  const double cpu0 = srv->cpu_seconds();
  s.traffic = fleet ? open_loop(gen, srv->port(), seconds)
                    : closed_loop(w, gen, *srv, seconds, passes, after, rep);
  s.cpu_s = srv->cpu_seconds() - cpu0;
  s.stats_after = ctl.request("stats");
  s.peak_rss_mb = srv->peak_rss_mb();
  srv->stop();
  return s;
}

/// Workload-specific checks of the server's answers and counters.
void check_server_side(const Options& o, const ServerSide& s, Report& rep) {
  const std::string name = o.workload->name;
  const Traffic& t = s.traffic;
  const ServerStats before(s.stats_before), after(s.stats_after);
  const double sends = static_cast<double>(t.sends);
  std::uint64_t captured = 0;
  for (std::size_t i = 0; i < t.exchanges.size(); ++i) {
    const std::string& resp = t.exchanges[i].response;
    check_plan_response(resp, rep);
    const std::string sweep = json_str(resp, "sweep");
    captured += static_cast<std::uint64_t>(json_num(resp, "captured", 0));
    if (name == "fleet-mix") {
      rep.check(t.popular[i] ? sweep == "cache"
                             : sweep == "leader" || sweep == "coalesced",
                "fleet-mix request " + std::to_string(i) +
                    " has sweep role '" + sweep + "'");
    } else {
      rep.check(sweep == "leader", "closed-loop request " +
                                       std::to_string(i) +
                                       " was not computed: " + sweep);
    }
  }
  if (name == "cold-plan") {
    // Two jitter runs per request, every one re-captured on every send.
    rep.check(captured == 2 * t.exchanges.size() &&
                  after.captured - before.captured == 2 * sends,
              "cold-plan did not re-capture every run");
    rep.check(after.sweeps_started - before.sweeps_started == sends,
              "cold-plan sweeps_started != requests sent");
  } else {
    rep.check(captured == 0 && after.captured == before.captured,
              name + " captured during traffic");
  }
  rep.check(after.shed == 0 && after.deadline_expired == 0,
            "plan_server shed or expired requests");
}

/// Hashes the first `k` of `parts` (the run's outputs, in order) and
/// checks the digest against the committed one, when given.
void check_outputs_digest(const Options& o, std::vector<std::string> parts,
                          std::size_t k, Report& rep) {
  rep.check(parts.size() >= k, "fewer than " + std::to_string(k) +
                                   " outputs; the outputs digest needs them");
  parts.resize(std::min(parts.size(), k));
  cms::serialize::ByteWriter w;
  w.str("cmsbench-outputs-v1");
  for (const std::string& p : parts) w.str(p);
  const std::string d = cms::serialize::fnv1a128_hex(w.bytes().data(), w.size());
  std::fprintf(stderr, "cmsbench: outputs_digest %s\n", d.c_str());
  if (!o.expect_digest.empty())
    rep.check(d == o.expect_digest,
              "outputs_digest " + d + " != committed " + o.expect_digest);
}

// ------------------------------------------------------------ metrics

/// The end-to-end metrics every workload reports, over its distinct
/// operations; `latency_ms` and `cpu_ms` hold one value per operation.
/// `slo_ok` counts the operations that succeeded within the workload's
/// latency limit; a failed operation misses it whatever its latency.
void e2e_metrics(const std::vector<double>& setup_s,
                 const std::vector<double>& latency_ms, double busy_s,
                 std::uint64_t ok, std::uint64_t slo_ok, double peak_rss_mb,
                 const std::vector<double>& cpu_ms, Report& rep) {
  const double ops = static_cast<double>(latency_ms.size());
  rep.quantile_metric("setup_s", setup_s, 0.5, "s");
  rep.quantile_metric("latency_ms.p50", latency_ms, 0.5, "ms");
  rep.quantile_metric("latency_ms.p90", latency_ms, 0.9, "ms");
  rep.quantile_metric("latency_ms.p99", latency_ms, 0.99, "ms");
  rep.rate_metric("throughput_ops_s", static_cast<double>(ok), busy_s, "1/s");
  rep.rate_metric("slo_ok_ratio", static_cast<double>(slo_ok), ops, "ratio");
  rep.metric("peak_rss_mb", peak_rss_mb, "MB");
  rep.mean_metric("cpu_ms_per_op", cpu_ms, "ms");
}

/// Per-layer metrics the server reports about itself: response fields
/// and stats deltas. `ex` are the traffic exchanges (paper-eval: its
/// set-up requests); `all` adds the set-up priming.
void server_layer_metrics(const std::vector<Exchange>& ex,
                          const std::vector<Exchange>& all,
                          const std::string& stats_before,
                          const std::string& stats_after,
                          const std::vector<double>& late, Report& rep) {
  std::vector<double> overhead, total;
  for (const Exchange& e : ex) {
    const double t = json_num(e.response, "total");
    overhead.push_back(e.wire_ms - t);
    total.push_back(t);
  }
  std::vector<double> capture, profile, plan;
  for (const Exchange& e : all) {
    if (json_num(e.response, "captured", 0) > 0)
      capture.push_back(json_num(e.response, "capture"));
    if (json_str(e.response, "sweep") != "cache") {
      profile.push_back(json_num(e.response, "profile"));
      plan.push_back(json_num(e.response, "plan"));
    }
  }
  const ServerStats b(stats_before), a(stats_after);
  const double requests = a.requests - b.requests;
  const double misses = requests - (a.plan_cache_hits - b.plan_cache_hits);
  rep.quantile_metric("net.overhead_ms.p50", overhead, 0.5, "ms");
  rep.quantile_metric("net.overhead_ms.p99", overhead, 0.99, "ms");
  rep.mean_metric("svc.total_ms.mean", total, "ms");
  rep.quantile_metric("svc.capture_ms.p50", capture, 0.5, "ms");
  rep.quantile_metric("svc.profile_ms.p50", profile, 0.5, "ms");
  rep.quantile_metric("svc.plan_ms.p50", plan, 0.5, "ms");
  rep.rate_metric("svc.plan_cache_hit_ratio",
                  a.plan_cache_hits - b.plan_cache_hits, requests, "ratio");
  rep.metric("svc.coalesced_ratio",
             misses > 0 ? (a.sweeps_coalesced - b.sweeps_coalesced) / misses
                        : 0.0,
             "ratio");
  rep.metric("svc.union_points_saved",
             a.union_points_saved - b.union_points_saved, "count");
  rep.metric("svc.captured", a.captured, "count");
  rep.quantile_metric("bench.generator_late_ms.p99", late, 0.99, "ms");
}

/// Per-layer metrics of the traced in-process pass.
void traced_layer_metrics(const Tracer& tr, double coverage,
                          std::uint64_t eval_l2_accesses, Report& rep) {
  const std::vector<double> self = tr.self_ms();
  std::map<std::string, std::vector<double>> by_name;
  std::map<std::string, double> self_sum, work_sum, child_bytes;
  for (std::size_t i = 0; i < tr.spans.size(); ++i) {
    const SpanRecord& s = tr.spans[i];
    by_name[s.name].push_back(self[i]);
    self_sum[s.name] += self[i];
    work_sum[s.name] += s.work;
    if (s.parent >= 0)
      child_bytes[tr.spans[static_cast<std::size_t>(s.parent)].name] +=
          s.bytes;
  }
  const auto p50 = [&](const char* span, const char* metric) {
    rep.quantile_metric(metric, by_name[span], 0.5, "ms");
  };
  rep.metric("trace.coverage", coverage, "ratio");
  p50("core.trace_digest", "core.trace_digest_ms.p50");
  p50("core.profile_jobs", "core.profile_jobs_ms.p50");
  p50("sim.capture", "sim.capture_ms.p50");
  rep.rate_metric("sim.capture_events_per_s", work_sum["sim.capture"],
                  self_sum["sim.capture"] / 1000.0, "1/s");
  // Self time of TraceStore::save is the encode (its put is a child);
  // self time of TraceStore::load is the decode (its get is a child).
  rep.rate_metric("opt.trace.encode_mb_per_s", child_bytes["opt.store.save"] / 1e6,
                  self_sum["opt.store.save"] / 1000.0, "MB/s");
  p50("opt.store.put", "opt.store.put_ms.p50");
  p50("opt.store.get", "opt.store.get_ms.p50");
  p50("opt.store.load", "opt.store.load_ms.p50");
  rep.rate_metric("opt.trace.decode_mb_per_s", child_bytes["opt.store.load"] / 1e6,
                  self_sum["opt.store.load"] / 1000.0, "MB/s");
  p50("opt.replay", "opt.replay_ms.p50");
  rep.rate_metric("opt.replay.lane_accesses_per_s", work_sum["opt.replay"],
                  self_sum["opt.replay"] / 1000.0, "1/s");
  p50("opt.plan", "opt.plan_ms.p50");
  p50("opt.plan_cache.get", "opt.plan_cache.get_ms.p50");
  p50("opt.plan_cache.put", "opt.plan_cache.put_ms.p50");
  p50("sim.eval", "sim.eval_ms.p50");
  rep.rate_metric("sim.eval_mcycles_per_s", work_sum["sim.eval"] / 1e6,
                  self_sum["sim.eval"] / 1000.0, "Mcycles/s");
  rep.metric("sim.eval_l2_accesses", static_cast<double>(eval_l2_accesses),
             "count");
}

/// trace.coverage is the median, over requests the server computed alone,
/// of the traced request time over the server's own total for it: near 1
/// when the spans account for everything the service does.
void check_coverage(const std::vector<double>& ratios, const Tracer& tr,
                    std::uint64_t eval_l2_accesses, Report& rep) {
  const double coverage = ratios.empty() ? 0.0 : quantile(ratios, 0.5);
  rep.check(coverage >= kCoverageLo && coverage <= kCoverageHi,
            "trace.coverage " + std::to_string(coverage) +
                " outside [0.85, 1.15]");
  traced_layer_metrics(tr, coverage, eval_l2_accesses, rep);
}

/// Simulates `plan` once as a soundness check of a served answer.
std::uint64_t check_plan_runs(const PlanOutcome& out, Report& rep) {
  const core::RunOutput run =
      Pipeline::evaluate(out.experiment, &out.response.assignment,
                         out.experiment.config().eval_jitter);
  rep.check(run.verified && !run.results.deadlocked,
            "the plan for " + out.response.scenario +
                " does not run verified under partitioning");
  return run.results.l2_accesses;
}

// ------------------------------------------------------------ workloads

/// The traced run's in-process copy of a server workload's requests, with
/// the server's store budget and plan-cache mode.
struct Replay {
  Replay(const std::string& dir, bool cold, bool fleet)
      : pipe(dir, {cold ? 1u : 0u, 0},
             fleet ? core::PlanCacheMode::kDisk : core::PlanCacheMode::kOff),
        cold(cold),
        fleet(fleet) {}

  /// Serves request `i` on the calling thread, spans to `tr`; `outs` and
  /// `ms` must already hold slot `i`.
  void serve(Tracer& tr, std::size_t i, const Request& r) {
    TraceScope scope(&tr);
    tr.request = i + 1;
    const std::size_t root = tr.spans.size();
    outs[i].emplace(pipe.plan(r));
    if (cold) pipe.gc();  // the server's untimed gc, mirrored
    ms[i] = tr.spans[root].end_ms - tr.spans[root].start_ms;
    // The closed loops' servers run without a plan cache; time the cache
    // layer on their plans outside the request.
    if (!fleet) pipe.time_plan_cache(*outs[i]);
  }

  Pipeline pipe;
  bool cold, fleet;
  std::vector<std::optional<PlanOutcome>> outs;  // by request index
  std::vector<double> ms;                        // request span, by index
};

void run_server_workload(const Options& o, Report& rep) {
  const WorkloadDef& w = *o.workload;
  const bool cold = std::string(w.name) == "cold-plan";
  const bool fleet = std::string(w.name) == "fleet-mix";
  RequestGen gen(w, o.seed);
  const std::vector<std::vector<Request>> phases = gen.priming();

  // The traced run serves every request in-process too. The closed loops
  // do it right after the server answered the same request, on the CPU
  // the server is bound to, so both sides see the same machine; fleet-mix
  // replays its arrival schedule with four
  // workers like the server's after the server pass, so its spans see the
  // same contention.
  const auto epoch = Clock::now();
  Tracer tr(epoch);
  std::optional<Replay> replay;
  AfterEach after;
  if (o.trace) {
    const std::string dir = o.work_dir + "/traced";
    fs::remove_all(dir);
    fs::create_directories(dir);
    replay.emplace(dir, cold, fleet);
    TraceScope scope(&tr);
    for (const auto& phase : phases)
      for (const Request& r : phase) replay->pipe.plan(r);
    if (!fleet)
      after = [&](std::size_t i, const Request& r) {
        replay->outs.resize(i + 1);
        replay->ms.resize(i + 1);
        replay->serve(tr, i, r);
      };
  }
  // The traced run serves each request once, and twice over: fleet-mix
  // gives its server pass and its in-process pass half the run each.
  const double seconds = o.trace && fleet ? o.seconds / 2.0 : o.seconds;
  const ServerSide s =
      server_run(o, gen, phases, seconds, o.trace ? 1 : w.setup_reps,
                 o.trace ? 1 : kPasses, after, rep);
  const Traffic& t = s.traffic;

  check_server_side(o, s, rep);
  // The end-to-end times, with the server's own time for each request
  // (`ms.total`) over the machine's slowdown while it was measured. The
  // rest of a latency, the round trip and any wait, is mostly wake-ups,
  // which the slowdown does not predict: it stays as measured. A closed
  // loop knows each request's own server CPU time; fleet-mix's requests
  // overlap, so it shares the server's CPU time out.
  std::vector<std::string> digests;
  std::vector<double> latency, late, cpu_ms;
  std::uint64_t ok = 0, slo_ok = 0;
  for (const Exchange& e : t.exchanges) {
    digests.push_back(json_str(e.response, "plan_digest"));
    const double served = json_num(e.response, "total", 0.0);
    latency.push_back(e.latency_ms - served + served / e.slowdown);
    late.push_back(e.late_ms);
    cpu_ms.push_back((fleet ? s.cpu_s * 1000.0 / static_cast<double>(t.sends)
                            : e.cpu_ms) /
                     e.slowdown);
    ok += json_ok(e.response);
    slo_ok += json_ok(e.response) && latency.back() <= w.slo_ms;
  }
  check_outputs_digest(o, digests, w.digest_prefix, rep);
  if (fleet) {
    const double p90 = late.empty() ? 0.0 : quantile(late, 0.9);
    rep.check(p90 <= kMaxLateP90Ms,
              "fleet-mix generator ran late: p90 " + std::to_string(p90) +
                  " ms");
  }
  rep.attempted += t.sends;
  rep.failed += t.failed;

  if (!o.trace) {
    // Untimed: recompute the first request of each scenario in-process,
    // from the server's own store but without its plan cache, and compare
    // answers. (The traced run compares every request.)
    Pipeline pipe(s.store_dir, {}, core::PlanCacheMode::kOff);
    std::set<std::string> seen;
    for (std::size_t i = 0; i < t.requests.size(); ++i)
      if (seen.insert(t.requests[i].plan.scenario).second)
        rep.check(pipe.plan(t.requests[i]).digest ==
                      json_str(t.exchanges[i].response, "plan_digest"),
                  "in-process plan differs from the served plan for " +
                      t.requests[i].line());
    // A closed loop is busy for the sum of its latencies.
    const double busy_s =
        fleet ? t.wall_s
              : std::accumulate(latency.begin(), latency.end(), 0.0) / 1000.0;
    e2e_metrics(s.setup_s, latency, busy_s, ok, slo_ok, s.peak_rss_mb, cpu_ms,
                rep);
    return;
  }

  server_layer_metrics(t.exchanges, [&] {
    std::vector<Exchange> all = s.priming_ex;
    all.insert(all.end(), t.exchanges.begin(), t.exchanges.end());
    return all;
  }(), s.stats_before, s.stats_after, late, rep);

  const std::size_t n = t.requests.size();
  if (fleet) {
    replay->outs.resize(n);
    replay->ms.resize(n);
    std::vector<Tracer> tracers(4, Tracer(epoch));
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(tracers.size());
    const auto start = Clock::now();
    const auto work = [&](std::size_t k) {
      try {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
          std::this_thread::sleep_until(
              start + std::chrono::duration<double, std::milli>(t.due_ms[i]));
          replay->serve(tracers[k], i, t.requests[i]);
        }
      } catch (...) {
        errors[k] = std::current_exception();
        next = n;
      }
    };
    std::vector<std::thread> threads;
    for (std::size_t k = 1; k < tracers.size(); ++k)
      threads.emplace_back(work, k);
    work(0);
    for (std::thread& th : threads) th.join();
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    for (const Tracer& wt : tracers) tr.append(wt);
  }

  std::vector<double> ratios;
  std::map<std::string, const PlanOutcome*> first;
  rep.check(replay->outs.size() == n, "the traced run skipped requests");
  for (std::size_t i = 0; i < replay->outs.size(); ++i) {
    const PlanOutcome& out = *replay->outs[i];
    const std::string& resp = t.exchanges[i].response;
    rep.check(out.digest == json_str(resp, "plan_digest") &&
                  out.captured == json_num(resp, "captured") &&
                  out.cache_hit == (json_str(resp, "sweep") == "cache"),
              "traced request " + std::to_string(i) +
                  " differs from the served one: " + t.requests[i].line());
    // A coalesced request waited on another request's sweep on the
    // server, so its service time is not its own work.
    const double served = json_num(resp, "total");
    if (json_str(resp, "sweep") != "coalesced" && served >= kMinComparableMs)
      ratios.push_back(replay->ms[i] / served);
    first.try_emplace(t.requests[i].plan.scenario, &out);
  }
  rep.attempted += replay->outs.size();
  std::uint64_t l2_accesses = 0;
  {
    TraceScope scope(&tr);
    tr.request = 0;
    for (const auto& [scenario, out] : first)
      l2_accesses += check_plan_runs(*out, rep);
  }
  check_coverage(ratios, tr, l2_accesses, rep);
  if (!o.out.empty()) tr.write(o.out);
}

/// paper-eval: the plans for the paper's two applications come from the
/// plan service during set-up, and are re-derived in-process, which the
/// evaluation needs as objects; the timed part is full evaluation runs.
/// Set-up asks the server and the in-process copy in turn, so the two
/// never compete for the machine and both sides of trace.coverage see
/// the same one.
void run_paper_eval(const Options& o, Report& rep) {
  const WorkloadDef& w = *o.workload;
  RequestGen gen(w, o.seed);
  Tracer tr;
  std::optional<TraceScope> scope;
  if (o.trace) scope.emplace(&tr);
  const int reps = w.setup_reps;
  std::vector<double> setup_s;
  std::vector<Exchange> server_ex, all_ex;  // last set-up's; every set-up's
  std::string stats_before, stats_after;
  std::vector<PlanOutcome> plans;
  std::vector<double> ratios;  // traced over served time, per request
  const std::vector<Request> reqs = gen.priming().front();
  SpeedTrack setup_speed;
  for (int r = 0; r < reps; ++r) {
    const std::string dir = o.work_dir + "/setup" + std::to_string(r);
    fs::remove_all(dir);
    fs::create_directories(dir + "/inproc");
    const auto t0 = Clock::now();
    std::vector<std::string> flags = w.server_flags;
    flags.insert(flags.end(), {"--trace-dir", dir + "/store"});
    ServerProc srv(o.server_bin, flags, dir);
    Connection ctl(srv.port());
    stats_before = ctl.request("stats");
    server_ex.clear();
    plans.clear();
    Pipeline pipe(dir + "/inproc", {}, core::PlanCacheMode::kDisk);
    for (const Request& q : reqs) {
      server_ex.push_back(send_parallel(srv.port(), {q})[0]);
      const std::size_t root = tr.spans.size();
      plans.push_back(pipe.plan(q));
      if (o.trace)
        ratios.push_back((tr.spans[root].end_ms - tr.spans[root].start_ms) /
                         json_num(server_ex.back().response, "total"));
    }
    all_ex.insert(all_ex.end(), server_ex.begin(), server_ex.end());
    stats_after = ctl.request("stats");
    srv.stop();
    const double s = ms_between(t0, Clock::now()) / 1000.0;
    setup_s.push_back(s / setup_speed.after_op());
    for (std::size_t k = 0; k < reqs.size(); ++k) {
      check_plan_response(server_ex[k].response, rep);
      rep.check(json_str(server_ex[k].response, "plan_digest") ==
                    plans[k].digest,
                "served plan for " + reqs[k].plan.scenario +
                    " differs from the in-process plan");
    }
  }

  // The paper's applications 1 and 2 (bench/bench_common.hpp) share the
  // jpeg-canny / mpeg2 scenarios' content and platform, so the plans
  // apply to them unchanged.
  struct App {
    core::Experiment exp, big;
    const PlanOutcome* plan;
    double misses[3] = {0, 0, 0};
    double runs[3] = {0, 0, 0};
  };
  const auto with_l2x2 = [](core::ExperimentConfig c) {
    c.platform.hier.l2.size_bytes *= 2;
    return c;
  };
  App apps[2] = {
      {core::Experiment(cms::bench::app1_factory(), cms::bench::app1_experiment()),
       core::Experiment(cms::bench::app1_factory(),
                        with_l2x2(cms::bench::app1_experiment())),
       &plans[0]},
      {core::Experiment(cms::bench::app2_factory(), cms::bench::app2_experiment()),
       core::Experiment(cms::bench::app2_factory(),
                        with_l2x2(cms::bench::app2_experiment())),
       &plans[1]},
  };
  for (const App& a : apps)
    rep.check(a.plan->response.assignment.feasible, "paper plan infeasible");

  // One block: application 1 once per run kind, application 2 three
  // times per kind, so the median and the 90th percentile both fall
  // inside a cluster of like runs (the two applications' runs differ
  // ~9x in length). Passes work as in closed_loop: an operation keeps its
  // first results, which every repeat must match, and its median pass.
  struct Timing {
    double latency_ms, cpu_ms, slowdown;
  };
  struct Op {
    int app, kind;  // kind: 0 shared, 1 partitioned, 2 shared with 2x L2
    std::uint64_t jitter;
    bool sound = true;
    std::vector<Timing> passes;
    std::uint64_t l2_misses = 0, l2_accesses = 0;
  };
  std::vector<Op> ops;
  std::vector<double> late;
  SpeedTrack speed;
  auto prev = Clock::now();
  const auto run_op = [&](Op& op, bool first) {
    App& a = apps[op.app];
    const double cpu0 = process_cpu_ms();
    const auto t0 = Clock::now();
    if (first) late.push_back(ms_between(prev, t0));
    const core::RunOutput run = Pipeline::evaluate(
        op.kind == 2 ? a.big : a.exp,
        op.kind == 1 ? &a.plan->response.assignment : nullptr, op.jitter);
    const double ms = ms_between(t0, Clock::now());
    const double cpu_ms = process_cpu_ms() - cpu0;
    op.passes.push_back({ms, cpu_ms, speed.after_op()});
    prev = Clock::now();
    ++rep.attempted;
    const bool sound = run.verified && !run.results.deadlocked;
    rep.failed += !sound;
    rep.check(sound, "evaluation run failed verification");
    if (op.kind == 1) {
      const auto comp = cms::opt::compare_expected_vs_simulated(
          *a.plan->profile, a.plan->response.assignment, run.results);
      rep.check(comp.within(0.02),
                "expected vs simulated misses differ by " +
                    std::to_string(100.0 * comp.max_rel_to_total) + "%");
    }
    op.sound = op.sound && sound;
    if (first) {
      op.l2_misses = run.results.l2_misses;
      op.l2_accesses = run.results.l2_accesses;
      a.misses[op.kind] += static_cast<double>(op.l2_misses);
      a.runs[op.kind] += 1;
      return;
    }
    rep.check(run.results.l2_misses == op.l2_misses &&
                  run.results.l2_accesses == op.l2_accesses,
              "a repeated evaluation run simulated other L2 counts");
  };
  const double seconds = o.trace ? o.seconds / 2.0 : o.seconds;
  const int passes = o.trace ? 1 : kPasses;
  const auto start = Clock::now();
  while (ms_between(start, Clock::now()) < seconds * 1000.0 / passes) {
    std::vector<std::pair<int, int>> block;  // (app, kind)
    for (int kind = 0; kind < 3; ++kind) {
      block.emplace_back(0, kind);
      for (int k = 0; k < 3; ++k) block.emplace_back(1, kind);
    }
    shuffle(gen.rng(), block);
    for (const auto& [app, kind] : block) {
      ops.push_back(Op{app, kind, gen.rng().below(1u << 16), true, {}, 0, 0});
      run_op(ops.back(), true);
    }
  }
  for (int p = 1; p < passes; ++p)
    for (Op& op : ops) run_op(op, false);

  std::vector<double> latency, cpu_ms;
  std::vector<std::string> outputs{plans[0].digest, plans[1].digest};
  std::uint64_t l2_accesses = 0, ok = 0, slo_ok = 0;
  double busy_s = 0.0;
  for (const Op& op : ops) {
    const Timing m = median_pass(op.passes);
    latency.push_back(m.latency_ms / m.slowdown);
    cpu_ms.push_back(m.cpu_ms / m.slowdown);
    busy_s += latency.back() / 1000.0;
    ok += op.sound;
    slo_ok += op.sound && latency.back() <= w.slo_ms;
    // The leading runs are the same for every run of a seed: an exact
    // count.
    if (outputs.size() < 2 + w.digest_prefix) l2_accesses += op.l2_accesses;
    outputs.push_back(std::to_string(op.app) + "/" + std::to_string(op.kind) +
                      "/" + std::to_string(op.jitter) + "/" +
                      std::to_string(op.l2_misses) + "/" +
                      std::to_string(op.l2_accesses));
  }
  for (const App& a : apps)
    rep.check(a.runs[0] > 0 && a.runs[1] > 0 &&
                  a.misses[1] / a.runs[1] < a.misses[0] / a.runs[0],
              "partitioned runs do not miss less than shared runs");
  check_outputs_digest(o, outputs, 2 + w.digest_prefix, rep);

  if (!o.trace) {
    e2e_metrics(setup_s, latency, busy_s, ok, slo_ok, self_peak_rss_mb(),
                cpu_ms, rep);
    return;
  }
  server_layer_metrics(all_ex, all_ex, stats_before, stats_after, late, rep);
  check_coverage(ratios, tr, l2_accesses, rep);
  if (!o.out.empty()) tr.write(o.out);
}

Options parse(int argc, char** argv) {
  Options o;
  const std::string name = cms::core::parse_string_flag(argc, argv, "--workload");
  for (const WorkloadDef& w : kWorkloads)
    if (name == w.name) o.workload = &w;
  if (o.workload == nullptr)
    throw BenchError("--workload must be cold-plan, warm-sweep, fleet-mix "
                     "or paper-eval");
  if (!cms::core::has_value_flag(argc, argv, "--seed"))
    throw BenchError("--seed N is required");
  o.seed = cms::core::parse_u64_flag(argc, argv, "--seed");
  o.seconds = std::strtod(
      cms::core::parse_string_flag(argc, argv, "--seconds", "0").c_str(),
      nullptr);
  if (!(o.seconds >= 1.0 && o.seconds <= 600.0))
    throw BenchError("--seconds must be within [1, 600]");
  o.trace = cms::core::has_flag(argc, argv, "--trace");
  o.server_bin = cms::core::parse_string_flag(argc, argv, "--server-bin");
  o.work_dir = cms::core::parse_string_flag(argc, argv, "--work-dir");
  if (o.server_bin.empty() || o.work_dir.empty())
    throw BenchError("--server-bin and --work-dir are required");
  o.out = cms::core::parse_string_flag(argc, argv, "--out");
  o.expect_digest = cms::core::parse_string_flag(argc, argv, "--expect-digest");
  return o;
}

}  // namespace
}  // namespace cmsbench

int main(int argc, char** argv) {
  using namespace cmsbench;
  Options o;
  try {
    o = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cmsbench: %s\n", e.what());
    return 2;
  }
  Report rep;
  try {
    fs::create_directories(o.work_dir);
    if (std::string(o.workload->name) == "paper-eval") {
      // Everything paper-eval times, and the slowdown probes beside it,
      // runs on one CPU; its plan_server inherits the binding.
      pin_self(::sched_getcpu());
      run_paper_eval(o, rep);
    } else {
      run_server_workload(o, rep);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cmsbench: run failed: %s\n", e.what());
    return 1;
  }
  rep.print();
  return rep.correct() ? 0 : 1;
}
