// CompositionalMemorySystem facade — the public API that ties the method
// together: register an application, profile it in isolation, plan the L2
// partitioning, run shared vs partitioned, and measure compositionality.
//
// Typical use (see examples/quickstart.cpp):
//
//   auto factory = [] { return apps::make_m2v_app(apps::AppConfig{}); };
//   core::Experiment exp(factory, core::ExperimentConfig{});
//   auto profile = exp.profile();
//   auto plan = exp.plan(profile);
//   auto shared = exp.run_shared();
//   auto part = exp.run_partitioned(plan);
//   auto comp = opt::compare_expected_vs_simulated(profile, plan,
//                                                  part.results);
//
// Profiling is a declarative sweep over `profile_grid` x `profile_runs`
// executed by a core::Campaign: every grid point is an independent SimJob,
// so setting `ExperimentConfig::jobs > 1` fans the sweep out over worker
// threads with bit-identical results (see runner.hpp for the contract).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "core/profiler_mode.hpp"
#include "core/runner.hpp"
#include "opt/compositionality.hpp"
#include "opt/planner.hpp"
#include "opt/profile.hpp"
#include "opt/replay_kernel.hpp"
#include "opt/trace.hpp"
#include "sim/engine.hpp"
#include "sim/os.hpp"
#include "sim/platform.hpp"
#include "sim/results.hpp"

namespace cms::opt {
class StoreBackend;
class TraceStore;
}

namespace cms::core {

struct ExperimentConfig {
  sim::PlatformConfig platform = sim::cake_platform();
  sim::SchedPolicy policy = sim::SchedPolicy::kMigrating;
  opt::PlannerConfig planner;
  ProfilerMode profiler = ProfilerMode::kFullSim;

  /// Persistent capture store (opt/trace_store.hpp); null keeps captures
  /// in memory. With a store, kTraceReplay profiling looks every jitter
  /// run up by Experiment::trace_digest() first — hits skip the
  /// instrumented simulation entirely, misses capture live and write
  /// back (unless the store is read-only). Requires a non-empty
  /// trace_key: the digest must identify the application content, and
  /// the AppFactory itself is opaque.
  std::shared_ptr<opt::TraceStore> trace_store;
  /// Content fingerprint of the application/content this experiment
  /// profiles (e.g. core::app_trace_key(name, app_config)). Folded into
  /// the store digest; an empty key disables store use (with a warning).
  std::string trace_key;

  /// Task / frame-buffer cache sizes swept by the profiler (sets).
  std::vector<std::uint32_t> profile_grid = {1, 2, 4, 8, 16, 32, 64, 128, 256};
  /// Number of profiling runs per size (scheduler jitter varies).
  std::uint32_t profile_runs = 2;
  /// Scheduler jitter of the evaluation runs.
  std::uint64_t eval_jitter = 0;

  /// Worker threads of the profiling campaign: 1 = serial (default),
  /// 0 = hardware concurrency, N = exactly N workers. Results are
  /// bit-identical for every value.
  unsigned jobs = 1;

  /// Replay engine of kTraceReplay profiling (opt/replay_kernel_mode.hpp).
  /// Both engines yield bit-identical profiles; kAuto runs the fused
  /// multi-size replay, kPerSize keeps the legacy one-cache-per-size loop
  /// (the reference the fused replay is verified against).
  opt::ReplayKernel replay_kernel = opt::ReplayKernel::kAuto;
};

/// Const members are safe to call concurrently on one Experiment.
class Experiment {
 public:
  Experiment(AppFactory factory, ExperimentConfig cfg)
      : factory_(std::move(factory)), cfg_(std::move(cfg)) {}

  const ExperimentConfig& config() const { return cfg_; }
  const AppFactory& factory() const { return factory_; }

  /// Task inventory of the application (id, name), in creation order.
  /// The first call to tasks() or buffers() — directly or through
  /// profile_jobs(), plan() and the capture entry points — builds the
  /// application once to learn both lists: a network build around the
  /// content the apps layer memoizes per process (apps::JpegCannyContent,
  /// apps::Mpeg2Content), so only the first build of a content encodes
  /// it. Later calls, on this Experiment or on any copy of it, reuse the
  /// lists.
  std::vector<std::pair<TaskId, std::string>> tasks() const;
  /// Shared buffer inventory.
  std::vector<kpn::SharedBufferInfo> buffers() const;

  /// One isolation-sweep simulation: grid position + the uniform partition
  /// size it measures.
  struct ProfileJob {
    SimJob job;
    std::uint32_t sets = 0;  // uniform per-task partition size
    std::uint32_t run = 0;   // jitter index within this grid point
  };

  /// The declarative profiling sweep: one job per (size, jitter) in
  /// canonical serial order. Every task gets the same partition size s
  /// (clients are mutually isolated, so M_i depends only on s); the L2 is
  /// virtually enlarged so every sweep point fits.
  std::vector<ProfileJob> profile_jobs() const;

  /// Execute the sweep with the configured profiler and fold the per-job
  /// results; bit-identical output for any worker count AND both profiler
  /// modes (kTraceReplay reproduces the kFullSim sweep exactly — see
  /// opt/trace.hpp for the argument, bench/micro_replay for the check).
  opt::MissProfile profile() const;

  /// profile() with an explicit mode (comparison benches, tests).
  opt::MissProfile profile_with(ProfilerMode mode) const;

  /// The capture half of trace-replay profiling: one instrumented
  /// isolation run per jitter seed (at the first grid point — any grid
  /// point records the same streams), executed on a Campaign with
  /// `config().jobs` workers. When `config().trace_store` is set (and
  /// trace_key non-empty), runs whose digest hits the store are loaded
  /// instead of simulated, and live captures are written back.
  std::vector<opt::CaptureRun> capture_runs() const;

  /// Capture exactly ONE jitter run on the calling thread, with no store
  /// interaction — the building block for services that manage store
  /// admission (and single-flight capture deduplication) themselves, e.g.
  /// svc::PlanningService. `run` indexes the jitter seeds [0,
  /// profile_runs). `usable` (when non-null) reports whether the run
  /// completed soundly (no deadlock, output verified); unusable captures
  /// must never be persisted. Throws std::invalid_argument on an
  /// out-of-range run.
  opt::CaptureRun capture_single(std::uint32_t run,
                                 bool* usable = nullptr) const;

  /// Content address of the capture for jitter seed `jitter`: a digest of
  /// the trace schema version, trace_key, scheduler policy, the full
  /// platform/hierarchy configuration and the jitter seed — everything
  /// the captured stream depends on. Any config change changes the
  /// digest, so a store can never serve a stale capture.
  std::string trace_digest(std::uint64_t jitter) const;

  /// The replay half as declarative jobs in canonical sweep order; the
  /// returned jobs point into `captures`, which must outlive them.
  /// Feed to opt::replay_profile or fan out on a Campaign. This is the
  /// PER-SIZE job list — the fused kernel's independent reference.
  std::vector<opt::ReplayJob> replay_jobs(
      const std::vector<opt::CaptureRun>& captures) const;

  /// The same sweep as fused multi-size jobs: one MultiReplayJob per
  /// capture run, carrying every grid point (orders match replay_jobs,
  /// so the folds are bit-identical). Jobs point into `captures`, which
  /// must outlive them. Feed to opt::replay_profile_multi.
  std::vector<opt::MultiReplayJob> multi_replay_jobs(
      const std::vector<opt::CaptureRun>& captures) const;

  /// Buffers-first + MCKP plan on the real L2 (paper section 3.2).
  opt::PartitionPlan plan(const opt::MissProfile& prof) const;

  /// Conventional shared-L2 baseline run.
  RunOutput run_shared() const { return run(nullptr, cfg_.eval_jitter); }

  /// Partitioned run under `plan`.
  RunOutput run_partitioned(const opt::PartitionPlan& plan) const {
    return run(&plan, cfg_.eval_jitter);
  }

  /// One run with explicit jitter (used by the profiler and tests).
  RunOutput run(const opt::PartitionPlan* plan, std::uint64_t jitter) const;

  /// Evaluation runs as campaign jobs, for callers batching several
  /// experiments onto one Campaign.
  SimJob shared_job(std::uint64_t jitter = 0) const;
  SimJob partitioned_job(const opt::PartitionPlan& plan,
                         std::uint64_t jitter = 0) const;

  /// Run with an L2 sized to `l2_size_bytes` (shared mode) — the paper's
  /// "1 MB shared L2" data point and the L2-size ablation.
  RunOutput run_shared_with_l2(std::uint32_t l2_size_bytes) const;

 private:
  /// The memo behind tasks()/buffers(). Held by shared_ptr so copies
  /// share it and Experiment stays copyable and movable.
  struct Inventory {
    std::once_flag built;
    std::vector<std::pair<TaskId, std::string>> tasks;
    std::vector<kpn::SharedBufferInfo> buffers;
  };
  const Inventory& inventory() const;

  SimJob make_job(const sim::PlatformConfig& pc,
                  std::shared_ptr<const opt::PartitionPlan> plan,
                  std::uint64_t jitter, std::string label) const;

  opt::MissProfile profile_fullsim(const std::vector<ProfileJob>& sweep) const;
  opt::MissProfile profile_replay(const std::vector<ProfileJob>& sweep) const;
  std::vector<opt::CaptureRun> capture_runs_for(
      const std::vector<ProfileJob>& sweep) const;

  AppFactory factory_;
  ExperimentConfig cfg_;
  std::shared_ptr<Inventory> inventory_ = std::make_shared<Inventory>();
};

/// Compose the store BACKEND the CLI flags describe (core/cli.hpp),
/// without wrapping it in a TraceStore: a DirBackend at `dir`, tiered
/// under an L2 when `l2_target` is given and `l2` is not kOff
/// (read-through with promote-on-hit; write-through only for l2 ==
/// kReadWrite). The target is either a directory (an L2 DirBackend) or a
/// `tcp://host:port` endpoint (an opt::NetBackend against a blob_server
/// daemon — use core::parse_store_l2_target to gather it from the flags).
/// Returns null — no persistence — when `dir` is empty or `mode` is kOff.
/// The same backend can feed a TraceStore and a PlanCache so both kinds
/// share the tiering.
std::shared_ptr<opt::StoreBackend> open_store_backend(
    const std::string& dir, TraceMode mode, const std::string& l2_target = "",
    StoreL2Mode l2 = StoreL2Mode::kOff);

/// The trace store over open_store_backend(dir, mode, l2_target, l2)
/// (read-only for mode == kReadOnly); null when that backend is.
std::shared_ptr<opt::TraceStore> open_trace_store(
    const std::string& dir, TraceMode mode, const std::string& l2_target = "",
    StoreL2Mode l2 = StoreL2Mode::kOff);

/// Standard ExperimentConfig::trace_key: a label (scenario name) plus a
/// digest of the content configuration, so any app tweak — image sizes,
/// frame counts, content seed — changes the key and misses the store.
std::string app_trace_key(const std::string& label,
                          const apps::AppConfig& content);

}  // namespace cms::core
