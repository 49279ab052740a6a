// Replay-identity microbenchmark (acceptance check for the trace-capture
// profiler): for every built-in scenario, profile with ProfilerMode::
// kFullSim and kTraceReplay and verify the two MissProfiles are
// bit-identical; report wall-clock, the engine-run reduction (replay
// executes profile_runs simulations instead of grid x runs), and the
// active-cycle reconstruction error against fully-timed isolation runs.
// Exits nonzero on any profile mismatch, or when a scenario's mean t_i
// reconstruction error exceeds kMaxMeanReconError.
//
//   ./micro_replay [--jobs N] [--quick]
//   {"bench": "micro_replay", "scenarios": [{"scenario": "mpeg2-tiny",
//    "identical": true, "engine_runs": {"fullsim": 5, "replay": 1},
//    "ms": {"fullsim": ..., "replay": ...}, "speedup": ...,
//    "t_recon_rel_err": {"mean": ..., "max": ...}}, ...],
//    "max_mean_recon_err": 0.10, "identical": true,
//    "recon_within_bound": true}
//
// Engine-comparison mode (--compare-kernels): capture once per scenario,
// then time the REPLAY HALF ALONE under every engine — full simulation,
// the reference sweep (opt::replay_profile_reference: one replay_fragment
// per grid point) and the fused replay — and verify every profile
// against the reference. `lanes` counts (stream, grid point) pairs and
// `lanes_replayed` those the fused replay replays event by event; the
// rest never evict and take their stream's first-touch counts.
//
//   ./micro_replay --compare-kernels [--jobs N]
//   {"bench": "micro_replay", "mode": "compare-kernels", "scenarios": [
//    {"scenario": "jpeg-canny-dense", "events": 123456, "grid_points": 64,
//     "lanes": 2304, "lanes_replayed": 153,
//     "engines": [{"engine": "fullsim", ...},
//                 {"engine": "reference", "ms": ...,
//                  "speedup_vs_reference": 1.0, "identical": true},
//                 {"engine": "fused", "ms": ..., ...}]}, ...],
//    "identical": true}
//
// Flags: --jobs N            campaign workers (0 = hardware)
//        --quick             tiny scenarios only (CI smoke on slow hosts)
//        --profile-out FILE  dump the replay profile (MissProfile rows) to
//                            FILE — CI diffs the full run's dump against
//                            the committed bench/micro_replay_profile.txt
//        --compare-kernels   per-engine timing mode (see above)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/scenario.hpp"
#include "opt/replay_kernel.hpp"
#include "opt/trace.hpp"

using namespace cms;

namespace {

/// Bound on each scenario's mean relative t_i reconstruction error. The
/// built-in scenarios read 0.027-0.059, and the runs are deterministic.
constexpr double kMaxMeanReconError = 0.10;

template <typename Fn>
double wall_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Reconstruction error of the analytic t_i at one grid point: the same
/// isolation job run under uniform L2 timing (what the profiler uses)
/// and under full timing (DRAM banks, miss latencies); error is the
/// relative gap between reconstructed and measured active cycles.
void recon_error_at(const core::Experiment& exp,
                    const core::Experiment::ProfileJob& pj, double& sum,
                    double& worst, std::uint64_t& n) {
  const Cycle surcharge = opt::miss_surcharge(exp.config().platform.hier);
  const core::RunOutput uniform = core::execute_job(pj.job);
  core::SimJob timed = pj.job;
  timed.platform.hier.uniform_l2_timing = false;
  const core::RunOutput real = core::execute_job(timed);
  for (std::size_t i = 0; i < real.results.tasks.size(); ++i) {
    const auto& u = uniform.results.tasks[i];
    const auto& r = real.results.tasks[i];
    if (r.active_cycles == 0) continue;
    const auto recon = static_cast<double>(opt::reconstruct_active_cycles(
        u.compute_cycles, u.mem_cycles, u.l2_demand_misses, surcharge));
    const double err = std::abs(recon - static_cast<double>(r.active_cycles)) /
                       static_cast<double>(r.active_cycles);
    sum += err;
    worst = std::max(worst, err);
    ++n;
  }
}

/// The per-engine timing mode: replay-only wall-clock of every engine
/// over the same captures, each verified bit-identical against the
/// reference sweep. Returns false on any mismatch.
bool compare_kernels(unsigned jobs,
                     const std::shared_ptr<opt::TraceStore>& store) {
  // tiny (LRU), tiny kRandom (counter-based RNG path), and the dense
  // 64-point grid the fused replay exists for.
  const std::vector<std::string> names = {"jpeg-canny-tiny",
                                          "mpeg2-tiny-rand",
                                          "jpeg-canny-dense"};
  bool all_identical = true;
  std::printf(
      "{\"bench\": \"micro_replay\", \"mode\": \"compare-kernels\", "
      "\"scenarios\": [");
  for (std::size_t s = 0; s < names.size(); ++s) {
    const core::Experiment exp = core::scenarios().make_experiment(
        names[s], jobs, core::ProfilerMode::kTraceReplay, store);
    const auto& cfg = exp.config();
    const Cycle surcharge = opt::miss_surcharge(cfg.platform.hier);
    const mem::CacheConfig& l2 = cfg.platform.hier.l2;
    const std::uint64_t l2_seed = cfg.platform.hier.l2_seed();

    // Captures are prepared (and store-warmed) OUTSIDE the timings: the
    // engines below time pure replay over identical inputs.
    const std::vector<opt::CaptureRun> captures = exp.capture_runs();
    std::uint64_t events = 0;
    for (const opt::CaptureRun& c : captures)
      events += c.trace.total_events();
    const std::vector<opt::MultiReplayJob> sweep =
        exp.multi_replay_jobs(captures);

    opt::MissProfile ref;
    const double ref_ms = wall_ms([&] {
      ref = opt::replay_profile_reference(sweep, l2, l2_seed, surcharge);
    });

    std::size_t lanes = 0, lanes_replayed = 0;
    for (const opt::MultiReplayJob& job : sweep) {
      opt::MultiReplay mr(*job.capture, job.points, l2, l2_seed);
      for (std::size_t st = 0; st < mr.num_streams(); ++st)
        mr.replay_stream(st);
      lanes += mr.lanes();
      lanes_replayed += mr.lanes_replayed();
    }

    std::printf("%s{\"scenario\": \"%s\", \"events\": %llu, "
                "\"grid_points\": %zu, \"lanes\": %zu, "
                "\"lanes_replayed\": %zu, \"engines\": [",
                s ? ", " : "", names[s].c_str(),
                static_cast<unsigned long long>(events),
                cfg.profile_grid.size(), lanes, lanes_replayed);

    // Full simulation first: the outermost reference (and the cost the
    // whole capture/replay machinery avoids).
    {
      opt::MissProfile full;
      const double ms = wall_ms(
          [&] { full = exp.profile_with(core::ProfilerMode::kFullSim); });
      const bool identical = ref.identical(full);
      all_identical = all_identical && identical;
      std::printf("{\"engine\": \"fullsim\", \"ms\": %.1f, "
                  "\"speedup_vs_reference\": %.2f, \"identical\": %s}",
                  ms, ms > 0.0 ? ref_ms / ms : 0.0,
                  identical ? "true" : "false");
    }
    std::printf(", {\"engine\": \"reference\", \"ms\": %.1f, "
                "\"speedup_vs_reference\": 1.00, \"identical\": true}",
                ref_ms);

    {
      opt::MissProfile prof;
      const double ms = wall_ms([&] {
        prof = opt::replay_profile_multi(sweep, l2, l2_seed, surcharge);
      });
      const bool identical = ref.identical(prof);
      all_identical = all_identical && identical;
      std::printf(", {\"engine\": \"fused\", \"ms\": %.1f, "
                  "\"speedup_vs_reference\": %.2f, \"identical\": %s}",
                  ms, ms > 0.0 ? ref_ms / ms : 0.0,
                  identical ? "true" : "false");
    }
    std::printf("]}");
  }
  std::printf("], \"identical\": %s}\n", all_identical ? "true" : "false");
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_jobs(argc, argv, 1);
  const bool quick = bench::has_flag(argc, argv, "--quick");
  const auto store = bench::parse_trace_store(argc, argv);
  const std::string profile_out =
      bench::parse_string_flag(argc, argv, "--profile-out");

  if (bench::has_flag(argc, argv, "--compare-kernels"))
    return compare_kernels(jobs, store) ? 0 : 1;

  std::vector<std::string> names;
  if (quick)
    names = {"jpeg-canny-tiny", "mpeg2-tiny", "mpeg2-tiny-rand"};
  else
    names = core::scenarios().names();

  bool all_identical = true;
  bool recon_ok = true;
  std::FILE* dump = nullptr;
  if (!profile_out.empty()) {
    dump = std::fopen(profile_out.c_str(), "w");
    if (dump == nullptr) {
      std::fprintf(stderr, "cannot open --profile-out file '%s'\n",
                   profile_out.c_str());
      return 1;
    }
  }

  std::printf("{\"bench\": \"micro_replay\", \"scenarios\": [");
  for (std::size_t s = 0; s < names.size(); ++s) {
    const core::Experiment exp = core::scenarios().make_experiment(
        names[s], jobs, std::nullopt, store);
    const auto& cfg = exp.config();
    const std::size_t runs = std::max(1u, cfg.profile_runs);
    const std::size_t full_runs = cfg.profile_grid.size() * runs;

    opt::MissProfile full, replay;
    const double full_ms =
        wall_ms([&] { full = exp.profile_with(core::ProfilerMode::kFullSim); });
    const double replay_ms = wall_ms(
        [&] { replay = exp.profile_with(core::ProfilerMode::kTraceReplay); });
    const bool identical = full.identical(replay);
    all_identical = all_identical && identical;

    // The profile dump CI diffs against bench/micro_replay_profile.txt:
    // replay output rendered deterministically, one block per scenario.
    if (dump != nullptr)
      std::fprintf(dump, "== %s ==\n%s", names[s].c_str(),
                   replay.to_string().c_str());

    // t_i reconstruction error at the extreme grid points (run 0).
    double err_sum = 0.0, err_max = 0.0;
    std::uint64_t err_n = 0;
    const auto sweep = exp.profile_jobs();
    recon_error_at(exp, sweep.front(), err_sum, err_max, err_n);
    if (cfg.profile_grid.size() > 1)
      recon_error_at(exp, sweep[(cfg.profile_grid.size() - 1) * runs],
                     err_sum, err_max, err_n);

    const double err_mean = err_n ? err_sum / static_cast<double>(err_n) : 0.0;
    recon_ok = recon_ok && err_mean <= kMaxMeanReconError;
    std::printf(
        "%s{\"scenario\": \"%s\", \"identical\": %s, "
        "\"engine_runs\": {\"fullsim\": %zu, \"replay\": %zu}, "
        "\"ms\": {\"fullsim\": %.1f, \"replay\": %.1f}, \"speedup\": %.2f, "
        "\"t_recon_rel_err\": {\"mean\": %.4f, \"max\": %.4f}}",
        s ? ", " : "", names[s].c_str(), identical ? "true" : "false",
        full_runs, runs, full_ms, replay_ms,
        replay_ms > 0.0 ? full_ms / replay_ms : 0.0, err_mean, err_max);
  }
  std::printf("], \"max_mean_recon_err\": %.2f, "
              "\"identical\": %s, \"recon_within_bound\": %s}\n",
              kMaxMeanReconError,
              all_identical ? "true" : "false", recon_ok ? "true" : "false");
  if (dump != nullptr) std::fclose(dump);
  return all_identical && recon_ok ? 0 : 1;
}
