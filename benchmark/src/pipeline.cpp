#include "pipeline.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <utility>

#include "opt/replay_kernel.hpp"
#include "opt/trace.hpp"
#include "svc/plan_protocol.hpp"

namespace cmsbench {

namespace {

/// StoreBackend decorator that spans every trace-blob get and put, so
/// TraceStore::load / ::save split into their backend I/O (child span)
/// and their own decode / encode work (self time). Plan blobs pass
/// through untraced and stay inside the plan-cache spans.
class TracingBackend final : public opt::StoreBackend {
 public:
  explicit TracingBackend(std::shared_ptr<opt::StoreBackend> inner)
      : inner_(std::move(inner)) {}

  std::string describe() const override { return inner_->describe(); }
  std::optional<Blob> get(opt::BlobKind kind,
                          const std::string& digest) override {
    if (kind != opt::BlobKind::kTrace) return inner_->get(kind, digest);
    Span s("opt.store.get");
    std::optional<Blob> blob = inner_->get(kind, digest);
    if (blob) s.add_bytes(static_cast<double>(blob->size()));
    return blob;
  }
  void put(opt::BlobKind kind, const std::string& digest,
           const Blob& bytes) override {
    if (kind != opt::BlobKind::kTrace) return inner_->put(kind, digest, bytes);
    Span s("opt.store.put");
    s.add_bytes(static_cast<double>(bytes.size()));
    inner_->put(kind, digest, bytes);
  }
  std::optional<std::uint64_t> stat(opt::BlobKind kind,
                                    const std::string& digest) override {
    return inner_->stat(kind, digest);
  }
  RemoveOutcome remove(opt::BlobKind kind,
                       const std::string& digest) override {
    return inner_->remove(kind, digest);
  }
  std::vector<ListedBlob> list(opt::BlobKind kind) override {
    return inner_->list(kind);
  }
  std::string path_of(opt::BlobKind kind,
                      const std::string& digest) const override {
    return inner_->path_of(kind, digest);
  }

 private:
  std::shared_ptr<opt::StoreBackend> inner_;
};

thread_local Tracer* t_tracer = nullptr;

std::string join_grid(const std::vector<std::uint32_t>& grid) {
  std::string out;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(grid[i]);
  }
  return out;
}

/// The service's plan-cache key for a request's resolved config.
opt::PlanKey plan_key(const core::ExperimentConfig& ec,
                      const std::vector<std::string>& trace_digests) {
  opt::PlanKey pk;
  pk.capture_digests = trace_digests;
  pk.grid = ec.profile_grid;
  pk.runs = static_cast<std::uint32_t>(trace_digests.size());
  pk.l2_size_bytes = ec.platform.hier.l2.size_bytes;
  pk.planner = ec.planner;
  return pk;
}

/// The entry the service memoizes for a computed plan.
opt::PlanCacheEntry cache_entry(const core::ExperimentConfig& ec,
                                const opt::MissProfile& prof,
                                const svc::PlanResponse& resp) {
  opt::PlanCacheEntry entry;
  entry.profile = prof;
  entry.plan = resp.assignment;
  for (const auto& t : resp.tasks)
    entry.predictions.push_back(opt::PlanPrediction{
        t.name, t.sets, t.predicted_misses, t.predicted_cycles});
  const double eps = ec.planner.curvature_eps;
  entry.curvature_eps = eps < 0.0 ? opt::auto_curvature_eps(prof) : eps;
  return entry;
}

}  // namespace

std::vector<double> Tracer::self_ms() const {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    self[i] = spans[i].end_ms - spans[i].start_ms;
  for (const SpanRecord& s : spans)
    if (s.parent >= 0)
      self[static_cast<std::size_t>(s.parent)] -= s.end_ms - s.start_ms;
  return self;
}

void Tracer::append(const Tracer& other) {
  const int offset = static_cast<int>(spans.size());
  for (SpanRecord s : other.spans) {
    if (s.parent >= 0) s.parent += offset;
    spans.push_back(s);
  }
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"spans\": [");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\": \"%s\", \"start_ms\": %.6f, \"end_ms\": "
                 "%.6f, \"parent\": %d, \"request\": %llu}",
                 i ? "," : "", s.name, s.start_ms, s.end_ms, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

TraceScope::TraceScope(Tracer* tracer) : saved_(t_tracer) {
  t_tracer = tracer;
}

TraceScope::~TraceScope() { t_tracer = saved_; }

Span::Span(const char* name) : tracer_(t_tracer) {
  if (tracer_ == nullptr) return;
  SpanRecord rec;
  rec.name = name;
  rec.parent = tracer_->current_;
  rec.request = tracer_->request;
  index_ = static_cast<int>(tracer_->spans.size());
  tracer_->spans.push_back(rec);
  tracer_->current_ = index_;
  // Stamp the start last, so the bookkeeping above is not inside the span.
  tracer_->spans.back().start_ms = tracer_->now_ms();
}

Span::~Span() {
  if (tracer_ == nullptr) return;
  SpanRecord& rec = tracer_->spans[static_cast<std::size_t>(index_)];
  rec.end_ms = tracer_->now_ms();
  tracer_->current_ = rec.parent;
}

void Span::add_bytes(double b) {
  if (tracer_ != nullptr)
    tracer_->spans[static_cast<std::size_t>(index_)].bytes += b;
}

void Span::add_work(double w) {
  if (tracer_ != nullptr)
    tracer_->spans[static_cast<std::size_t>(index_)].work += w;
}

std::string Request::line() const {
  std::string out = "plan " + plan.scenario;
  if (!plan.grid.empty()) out += " grid=" + join_grid(plan.grid);
  if (plan.runs) out += " runs=" + std::to_string(*plan.runs);
  if (plan.l2_size_bytes) out += " l2=" + std::to_string(*plan.l2_size_bytes);
  if (plan.curvature_eps) {
    // %.17g round-trips: the server's strtod reads back this exact double.
    char eps[32];
    std::snprintf(eps, sizeof(eps), "%.17g", *plan.curvature_eps);
    out += std::string(" eps=") + eps;
  }
  return out;
}

Pipeline::Pipeline(const std::string& dir,
                   opt::TraceStore::Capacity store_budget,
                   core::PlanCacheMode cache) {
  const auto backend = std::make_shared<TracingBackend>(
      std::make_shared<opt::DirBackend>(dir));
  store_ = svc::open_service_store(backend, core::TraceMode::kReadWrite,
                                   store_budget);
  cache_ = svc::open_plan_cache(cache, backend, core::TraceMode::kReadWrite);
}

PlanOutcome Pipeline::plan(const Request& req) {
  PlanOutcome out = [&] {
    Span request("svc.request");
    return serve(req.plan);
  }();
  // The server renders the digest after it stops its request clock.
  out.response.ok = true;
  out.digest = svc::plan_response_digest(out.response);
  return out;
}

PlanOutcome Pipeline::serve(const svc::PlanRequest& pr) {
  core::ScenarioSpec spec = core::scenarios().get(pr.scenario);
  core::ExperimentConfig cfg = spec.experiment;
  if (!pr.grid.empty()) cfg.profile_grid = pr.grid;
  if (pr.runs) cfg.profile_runs = std::max(1u, *pr.runs);
  if (pr.l2_size_bytes) cfg.platform.hier.l2.size_bytes = *pr.l2_size_bytes;
  if (pr.curvature_eps) cfg.planner.curvature_eps = *pr.curvature_eps;
  cfg.trace_store = store_;
  cfg.profiler = core::ProfilerMode::kTraceReplay;
  cfg.jobs = 1;
  cfg.replay_kernel = opt::ReplayKernel::kAuto;
  PlanOutcome out(core::Experiment(std::move(spec.factory), std::move(cfg)));
  const core::Experiment& exp = out.experiment;
  const core::ExperimentConfig& ec = exp.config();
  const std::uint32_t runs = std::max(1u, ec.profile_runs);

  std::vector<std::string>& digests = out.trace_digests;
  digests.resize(runs);
  {
    Span s("core.trace_digest");
    for (std::uint32_t r = 0; r < runs; ++r) digests[r] = exp.trace_digest(r);
  }

  std::string key;
  std::shared_ptr<const opt::PlanCacheEntry> memo;
  if (cache_ != nullptr) {
    Span s("opt.plan_cache.get");
    key = plan_key(ec, digests).digest();
    memo = cache_->get(key);
  }
  if (memo != nullptr) {
    out.response.assignment = memo->plan;
    for (const opt::PlanPrediction& p : memo->predictions)
      out.response.tasks.push_back(svc::PlanResponse::TaskPrediction{
          p.name, p.sets, p.misses, p.cycles});
    out.profile = std::shared_ptr<const opt::MissProfile>(memo, &memo->profile);
    out.cache_hit = true;
    return out;
  }

  std::vector<opt::TraceStore::Pin> pins;
  for (const std::string& d : digests) pins.push_back(store_->pin(d));
  for (std::uint32_t r = 0; r < runs; ++r) {
    bool resident = false;
    {
      Span s("opt.store.contains");
      resident = store_->contains(digests[r]);
    }
    if (resident) continue;
    opt::CaptureRun capture;
    bool usable = false;
    {
      Span s("sim.capture");
      capture = exp.capture_single(r, &usable);
      s.add_work(static_cast<double>(capture.trace.total_events()));
    }
    if (!usable)
      throw std::runtime_error("capture run " + std::to_string(r) + " of " +
                               pr.scenario + " is unusable");
    {
      Span s("opt.store.save");
      store_->save(digests[r], capture);
    }
    ++out.captured;
  }

  // Experiment::profile() builds the sweep once for its captures and once
  // more inside multi_replay_jobs; both builds are part of the service's
  // cost.
  {
    Span s("core.profile_jobs");
    (void)exp.profile_jobs();
  }
  std::vector<opt::CaptureRun> captures(runs);
  for (std::uint32_t r = 0; r < runs; ++r) {
    Span s("opt.store.load");
    std::optional<opt::CaptureRun> hit = store_->load(digests[r]);
    if (!hit)
      throw std::runtime_error("capture " + digests[r] +
                               " vanished from the store");
    captures[r] = std::move(*hit);
  }
  std::vector<opt::MultiReplayJob> jobs;
  {
    Span s("core.profile_jobs");
    jobs = exp.multi_replay_jobs(captures);
  }
  auto prof = std::make_shared<opt::MissProfile>();
  {
    Span s("opt.replay");
    *prof = opt::replay_profile_multi(
        jobs, ec.platform.hier.l2, ec.platform.hier.l2_seed(),
        opt::miss_surcharge(ec.platform.hier), ec.replay_kernel);
    for (const opt::MultiReplayJob& j : jobs)
      s.add_work(static_cast<double>(j.capture->trace.total_events() *
                                     j.points.size()));
  }
  {
    Span s("opt.plan");
    out.response.assignment = exp.plan(*prof);
  }
  for (const opt::PlanEntry& e : out.response.assignment.entries)
    if (e.is_task)
      out.response.tasks.push_back(svc::PlanResponse::TaskPrediction{
          e.name, e.sets, e.expected_misses,
          prof->active_cycles(e.name, e.sets)});
  if (cache_ != nullptr) {
    Span s("opt.plan_cache.put");
    cache_->put(key, cache_entry(ec, *prof, out.response));
  }
  out.profile = std::move(prof);
  return out;
}

void Pipeline::gc() {
  store_->gc();
  if (cache_ != nullptr) cache_->gc();
}

void Pipeline::time_plan_cache(const PlanOutcome& out) {
  if (side_cache_ == nullptr)
    side_cache_ = std::make_unique<opt::PlanCache>(opt::PlanCache::Config{});
  const core::ExperimentConfig& ec = out.experiment.config();
  const std::string key = plan_key(ec, out.trace_digests).digest();
  {
    Span s("opt.plan_cache.put");
    side_cache_->put(key, cache_entry(ec, *out.profile, out.response));
  }
  Span s("opt.plan_cache.get");
  if (side_cache_->get(plan_key(ec, out.trace_digests).digest()) == nullptr)
    throw std::runtime_error("the plan cache lost an entry it just stored");
}

core::RunOutput Pipeline::evaluate(const core::Experiment& exp,
                                   const opt::PartitionPlan* plan,
                                   std::uint64_t jitter) {
  Span s("sim.eval");
  core::RunOutput out = exp.run(plan, jitter);
  s.add_work(static_cast<double>(out.results.makespan));
  return out;
}

}  // namespace cmsbench
