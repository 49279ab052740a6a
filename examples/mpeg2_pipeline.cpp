// End-to-end walkthrough of the paper's method on the MPEG2 decoder:
// profile -> plan -> apply -> run -> report, using the high-level
// Experiment facade over a registered scenario. This is the flow a system
// integrator would run to dimension the L2 partitions of a new task set.
//
// Pass `--jobs N` to fan the profiling sweep out over N worker threads
// (the miss profile is bit-identical for any worker count).
#include <cstdio>

#include "common/table.hpp"
#include "core/cli.hpp"
#include "core/scenario.hpp"
#include "opt/power.hpp"

using namespace cms;

int main(int argc, char** argv) {
  const unsigned jobs = core::parse_jobs(argc, argv);

  // The registry ships the paper's evaluation scenarios by name; "mpeg2"
  // is the small MPEG2-class workload (128x96, 10 frames, 64 KB L2 —
  // the conflict-heavy regime).
  core::ScenarioSpec spec = core::scenarios().get("mpeg2");
  spec.experiment.profile_runs = 1;
  spec.experiment.jobs = jobs;
  // Profiling captures one trace per jitter run and replays it at every
  // grid point. Add --trace-dir=DIR to persist the captures: the next run
  // of this example (or any tool profiling the same scenario) loads them
  // off disk and skips the instrumented simulations entirely.
  spec.experiment.trace_store = core::open_trace_store(
      core::parse_trace_dir(argc, argv), core::parse_trace_mode(argc, argv));
  core::warn_unknown_flags(argc, argv);
  core::Experiment exp(spec.factory, spec.experiment);

  std::printf("scenario: %s — %s\n", spec.name.c_str(),
              spec.description.c_str());
  std::printf("1) profiling per-task miss curves in isolation (%u worker%s, "
              "capture + replay)...\n",
              jobs, jobs == 1 ? "" : "s");
  const opt::MissProfile prof = exp.profile();

  std::printf("2) planning the partition ratio (buffers first, MCKP for "
              "tasks and frames)...\n");
  const opt::PartitionPlan plan = exp.plan(prof);
  if (!plan.feasible) {
    std::printf("   plan infeasible for this cache size\n");
    return 1;
  }
  std::printf("   %u of %u sets allocated, expected task misses %.0f\n",
              plan.used_sets, plan.total_sets, plan.expected_task_misses);

  std::printf("3) running shared-L2 baseline and partitioned system...\n");
  const core::RunOutput shared = exp.run_shared();
  const core::RunOutput part = exp.run_partitioned(plan);

  Table t({"metric", "shared", "partitioned"});
  t.row()
      .cell("L2 misses")
      .integer(static_cast<std::int64_t>(shared.results.l2_misses))
      .integer(static_cast<std::int64_t>(part.results.l2_misses))
      .done();
  t.row()
      .cell("L2 miss rate %")
      .num(100.0 * shared.results.l2_miss_rate())
      .num(100.0 * part.results.l2_miss_rate())
      .done();
  t.row()
      .cell("mean CPI")
      .num(shared.results.mean_cpi(), 3)
      .num(part.results.mean_cpi(), 3)
      .done();
  t.row()
      .cell("makespan (cycles)")
      .integer(static_cast<std::int64_t>(shared.results.makespan))
      .integer(static_cast<std::int64_t>(part.results.makespan))
      .done();
  const opt::PowerReport ps = opt::estimate_power(shared.results);
  const opt::PowerReport pp = opt::estimate_power(part.results);
  t.row().cell("energy (mJ)").num(ps.total_mj, 2).num(pp.total_mj, 2).done();
  t.row()
      .cell("decoded bit-exact")
      .cell(shared.verified ? "yes" : "NO")
      .cell(part.verified ? "yes" : "NO")
      .done();
  t.print();

  std::printf("4) compositionality check (expected vs simulated)...\n");
  const auto rep = opt::compare_expected_vs_simulated(prof, plan, part.results);
  std::printf("   max per-task deviation: %.3f%% of total misses (paper: "
              "<= 2%%)\n",
              100.0 * rep.max_rel_to_total);
  return 0;
}
