#include "core/runner.hpp"

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/log.hpp"
#include "mem/partitioned_cache.hpp"
#include "sim/engine.hpp"

namespace cms::core {

RunOutput execute_job(const SimJob& job) {
  assert(job.factory && "SimJob has no application factory");
  apps::Application app = job.factory();

  sim::PlatformConfig cfg = job.platform;
  cfg.rt_data = app.rt_data;
  cfg.rt_bss = app.rt_bss;
  sim::Platform platform(cfg);

  // The OS registers every shared buffer in the interval table in both
  // modes: attribution (per-buffer stats) is mode-independent; only the
  // index translation differs. A buffer that cannot be registered would
  // have its L2 accesses silently attributed to the issuing task.
  mem::PartitionedCache& l2 = platform.hierarchy().l2();
  for (const auto& b : app.net->buffers()) {
    if (!l2.interval_table().add(b.base, b.footprint, b.id)) {
      char range[64];
      std::snprintf(range, sizeof(range), "[0x%llx, +%llu)",
                    static_cast<unsigned long long>(b.base),
                    static_cast<unsigned long long>(b.footprint));
      throw std::invalid_argument("shared buffer '" + b.name + "' " + range +
                                  " of " + app.name +
                                  " is empty or overlaps another shared "
                                  "buffer");
    }
  }

  if (job.plan != nullptr) {
    job.plan->apply(l2);
  } else {
    l2.set_partitioning_enabled(false);
  }

  sim::Os os(job.policy, cfg.hier.num_procs, job.jitter);
  if (job.policy == sim::SchedPolicy::kStatic) {
    // Default static mapping: round-robin by task id. Callers wanting an
    // optimized mapping use opt::assign_* and a custom Os.
    ProcId p = 0;
    for (const auto& t : app.net->processes()) {
      os.assign(t->id(), p);
      p = static_cast<ProcId>((p + 1) % static_cast<ProcId>(cfg.hier.num_procs));
    }
  }
  if (job.trace_sink != nullptr)
    platform.hierarchy().set_trace_sink(job.trace_sink.get());

  sim::TimingEngine engine(platform, os, app.net->tasks());
  engine.set_buffer_names(app.net->buffer_names());

  RunOutput out;
  for (const auto& b : app.net->buffers()) {
    if ((app.rt_data.size != 0 && b.base == app.rt_data.base) ||
        (app.rt_bss.size != 0 && b.base == app.rt_bss.base))
      out.scheduler_clients.push_back(mem::ClientId::buffer(b.id));
  }
  out.results = engine.run();
  out.partitioned = job.plan != nullptr;
  out.verified = app.verify ? app.verify() : true;
  if (out.results.deadlocked)
    log_warn() << "simulation deadlocked (" << app.name << ")";
  return out;
}

std::size_t Campaign::add(SimJob job) {
  std::string label = job.label;
  queue_.push_back(Queued{
      [job = std::move(job)] { return execute_job(job); }, std::move(label)});
  return queue_.size() - 1;
}

std::size_t Campaign::add(std::function<RunOutput()> fn, std::string label) {
  assert(fn && "Campaign job has no callable");
  queue_.push_back(Queued{std::move(fn), std::move(label)});
  return queue_.size() - 1;
}

unsigned Campaign::resolve_jobs(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw != 0 ? hw : 1;
}

std::vector<JobResult> Campaign::run_all() {
  std::vector<Queued> jobs;
  jobs.swap(queue_);
  std::vector<JobResult> results(jobs.size());
  if (jobs.empty()) return results;

  std::atomic<std::size_t> next{0};
  std::mutex err_mu;
  std::exception_ptr first_error;

  auto worker = [&] {
    for (;;) {
      {
        // Fail fast: once any job errored the campaign's results will be
        // discarded, so don't simulate the rest of the queue.
        std::lock_guard<std::mutex> lk(err_mu);
        if (first_error) return;
      }
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      JobResult& r = results[i];
      r.index = i;
      r.label = jobs[i].label;
      const auto t0 = std::chrono::steady_clock::now();
      try {
        r.output = jobs[i].run();
      } catch (...) {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      r.wall_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    }
  };

  const std::size_t workers =
      std::min<std::size_t>(resolve_jobs(jobs_), jobs.size());
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace cms::core
