// Campaign runner — the orchestration seam between experiment-level sweeps
// and individual simulations.
//
// A `SimJob` is one fully self-contained simulation: an application factory
// (every run builds its OWN Application, network, content and address
// space), a platform configuration, an optional partition plan, and a
// deterministic scheduler-jitter seed. Because a job shares no mutable
// state with any other job, independent jobs can execute on any thread in
// any order; `Campaign` fans them out over a worker pool and returns the
// results in SUBMISSION order, so downstream aggregation is bit-identical
// to a serial execution regardless of completion order.
//
// Thread-safety contract (see ARCHITECTURE.md):
//  * sim::Platform, sim::Os, sim::TimingEngine and everything they own are
//    thread-confined: one simulation, one thread, no sharing.
//  * The only process-wide state the simulator touches is immutable after
//    first use (codec constant tables: const-init or magic-static-guarded)
//    or atomic (the log level), so concurrent engines are race-free.
//  * All randomness flows through per-run cms::Rng seeds carried in the
//    job; no global RNG exists.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "mem/trace_sink.hpp"
#include "opt/planner.hpp"
#include "sim/os.hpp"
#include "sim/platform.hpp"
#include "sim/results.hpp"

namespace cms::core {

using AppFactory = std::function<apps::Application()>;

/// Outcome of one simulation run.
struct RunOutput {
  sim::SimResults results;
  bool verified = false;     // functional correctness of the decoded output
  bool partitioned = false;  // mode of this run
  /// Buffer clients covering the runtime's rt data/bss regions — the
  /// scheduler's context-switch traffic. Consumers (the trace-replay
  /// profiler's t_i reconstruction) need them to mirror the engine's
  /// accounting, which charges switch work to the processor, not the
  /// task.
  std::vector<mem::ClientId> scheduler_clients;
};

/// One independent simulation: everything needed to execute it on any
/// worker thread with a deterministic result.
struct SimJob {
  AppFactory factory;
  sim::PlatformConfig platform;
  sim::SchedPolicy policy = sim::SchedPolicy::kMigrating;
  /// Partition plan to install; null runs the conventional shared L2.
  /// Shared (not owned) because sweep jobs at the same grid point reuse
  /// one immutable plan.
  std::shared_ptr<const opt::PartitionPlan> plan;
  /// Deterministic scheduler-jitter seed (the paper averages miss counts
  /// over several jitter values).
  std::uint64_t jitter = 0;
  std::string label;
  /// Optional observer of the run's L2-bound access stream (the capture
  /// half of the trace-and-replay profiler). Shared so the submitter can
  /// keep a handle and harvest the recording after run_all(); each job
  /// needs its OWN sink instance — the hierarchy notifies it from the
  /// worker thread that executes the job.
  std::shared_ptr<mem::AccessTraceSink> trace_sink;
};

/// Result of one job, tagged with its submission index.
struct JobResult {
  std::size_t index = 0;
  std::string label;
  RunOutput output;
  double wall_ms = 0.0;  // wall-clock of this job on its worker
};

/// Execute one job synchronously on the calling thread. Throws
/// std::invalid_argument when a shared buffer of the application is empty
/// or overlaps another one (its accesses could not be attributed to it).
RunOutput execute_job(const SimJob& job);

/// Thread-pool job runner for independent work items. Simulations
/// (SimJob) are the common case; any self-contained callable — e.g. the
/// trace-replay jobs of the profiler — rides the same pool, ordering and
/// error handling.
///
/// Usage:
///   Campaign camp(4);                       // 4 workers (0 = hardware)
///   camp.add(job_a); camp.add(job_b);
///   camp.add([&] { frags[2] = replay(...); return RunOutput{}; }, "replay");
///   auto results = camp.run_all();          // results[i] <-> i-th add()
///
/// `run_all` blocks until every queued job finished. Worker exceptions are
/// captured and the first one is rethrown on the calling thread after all
/// workers joined.
class Campaign {
 public:
  /// `jobs` = number of worker threads; 0 resolves to the hardware
  /// concurrency (at least 1). 1 executes inline on the calling thread.
  explicit Campaign(unsigned jobs = 1) : jobs_(jobs) {}

  unsigned jobs() const { return jobs_; }
  std::size_t size() const { return queue_.size(); }

  /// Queue a simulation job; returns its submission index.
  std::size_t add(SimJob job);

  /// Queue an arbitrary work item. `fn` runs once, on any worker thread;
  /// like a SimJob it must own its mutable state (it may write results
  /// through captured pointers as long as no two queued items share a
  /// destination). Returns the submission index.
  std::size_t add(std::function<RunOutput()> fn, std::string label = {});

  /// Run every queued job and clear the queue. Results are indexed by
  /// submission order, independent of which worker finished first.
  std::vector<JobResult> run_all();

  /// 0 -> hardware concurrency (>= 1), otherwise `requested`.
  static unsigned resolve_jobs(unsigned requested);

 private:
  struct Queued {
    std::function<RunOutput()> run;
    std::string label;
  };
  unsigned jobs_;
  std::vector<Queued> queue_;
};

}  // namespace cms::core
