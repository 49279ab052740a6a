// The benchmark's in-process copy of one plan request, with a span around
// every call it makes into a layer's public functions.
//
// Pipeline::plan walks the same steps, in the same order and through the
// same library calls, as svc::PlanningService::plan does for one request
// under the server flags the benchmark uses (--jobs 1, default replay
// kernel, no merge window): digests, plan-cache probe, pin, capture +
// save of missing runs, store loads, fused replay, MCKP solve,
// plan-cache insert. It skips only what concurrency adds (single-flight
// and sweep coalescing), which changes no answer. Its plan digest is
// therefore the one the server returns for the same request, and the
// traced run checks that it is. Spans go to the calling thread's Tracer
// (TraceScope); without one they cost nothing, so the untraced uses
// (paper-eval's set-up) run the same code.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "core/profiler_mode.hpp"
#include "opt/plan_cache.hpp"
#include "opt/store_backend.hpp"
#include "opt/trace_store.hpp"
#include "svc/planning_service.hpp"

namespace cmsbench {

namespace core = cms::core;
namespace opt = cms::opt;
namespace svc = cms::svc;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One recorded span. `parent` indexes the enclosing span (-1 for a
/// root); `request` is the id of the request it served (0 = set-up).
/// `bytes` and `work` carry what the layer processed: blob bytes moved
/// by the store, and events captured, lane accesses replayed or cycles
/// simulated.
struct SpanRecord {
  const char* name = "";
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  std::uint64_t request = 0;
  double bytes = 0.0;
  double work = 0.0;
};

/// In-memory span log of one thread. Times are ms since `epoch`, so the
/// logs of threads sharing an epoch line up after append().
class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {}

  std::vector<SpanRecord> spans;
  /// Request id stamped on every span opened from now on.
  std::uint64_t request = 0;

  double now_ms() const { return ms_between(epoch_, Clock::now()); }
  /// Span duration minus the time its direct children cover.
  std::vector<double> self_ms() const;
  /// Adds another thread's finished spans to this log.
  void append(const Tracer& other);
  /// Writes every span as JSON (name, start, end, parent, request).
  void write(const std::string& path) const;

 private:
  friend class Span;
  int current_ = -1;
  Clock::time_point epoch_;
};

/// Routes the calling thread's spans to `tracer` while alive.
class TraceScope {
 public:
  explicit TraceScope(Tracer* tracer);
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  Tracer* saved_;
};

/// RAII span on the calling thread's tracer; a no-op without one.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void add_bytes(double b);
  void add_work(double w);

 private:
  Tracer* tracer_;
  int index_ = -1;
};

/// One plan request as the harness generates it; `line()` is its wire
/// form, and the server parses it back into exactly this request.
struct Request {
  svc::PlanRequest plan;
  /// Wire form: `plan <scenario> grid=... [l2=...] [eps=...]`.
  std::string line() const;
};

/// What one in-process request produced.
struct PlanOutcome {
  explicit PlanOutcome(core::Experiment exp) : experiment(std::move(exp)) {}

  core::Experiment experiment;
  svc::PlanResponse response;  // assignment + task predictions
  std::shared_ptr<const opt::MissProfile> profile;
  std::string digest;          // svc::plan_response_digest(response)
  std::vector<std::string> trace_digests;  // one per profile run
  bool cache_hit = false;
  std::uint32_t captured = 0;  // runs this request simulated
};

/// The request pipeline over its own store directory.
class Pipeline {
 public:
  /// A store in `dir` (created) with `store_budget`, and a plan cache
  /// per `cache` (off, memory, or disk over the same directory).
  Pipeline(const std::string& dir, opt::TraceStore::Capacity store_budget,
           core::PlanCacheMode cache);

  /// Serve one request; throws on any failure (the server would answer
  /// ok = false). Thread-safe, like the service.
  PlanOutcome plan(const Request& req);
  /// The server's `gc` command: enforce the store and plan-cache budgets.
  void gc();
  /// Spans PlanCache::put and then ::get of `out`'s plan on a memory-only
  /// cache of this pipeline's own, outside any request span. A workload
  /// whose server runs without a plan cache measures the cache layer's
  /// cost for its plans this way. Not thread-safe.
  void time_plan_cache(const PlanOutcome& out);

  /// One full simulation of `plan` on the experiment's platform, traced
  /// as sim.eval. `plan` null runs the shared L2.
  static core::RunOutput evaluate(const core::Experiment& exp,
                                  const opt::PartitionPlan* plan,
                                  std::uint64_t jitter);

 private:
  PlanOutcome serve(const svc::PlanRequest& req);

  std::shared_ptr<opt::TraceStore> store_;
  std::shared_ptr<opt::PlanCache> cache_;
  std::unique_ptr<opt::PlanCache> side_cache_;  // time_plan_cache's
};

}  // namespace cmsbench
