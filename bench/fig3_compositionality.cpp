// Figure 3 — "Expected-simulated performance comparison for every task".
//
// The model's expected misses (average M_i over the isolation profile at
// the chosen sizes) are compared with the misses observed when the whole
// application runs under the chosen partitioning. The paper's headline:
// "the largest difference for a task between the expected and simulated
// number of misses relative to the overall simulated number of misses is
// 2%" — that residual comes from the neglected effects (task switching,
// L1 and bus contention).
//
// Exits 1 when either application's plan is infeasible, a task misses
// the 2% bound, or the partitioned run fails functional verification.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "common/table.hpp"

using namespace cms;

namespace {

/// Prints one application's comparison; true when the plan is feasible,
/// every task is within the paper's 2% bound and the run verifies.
bool run_app(const char* title, const core::AppFactory& factory,
             const core::ExperimentConfig& cfg) {
  print_banner(title);
  core::Experiment exp(factory, cfg);
  const opt::MissProfile prof = exp.profile();
  const opt::PartitionPlan plan = exp.plan(prof);
  if (!plan.feasible) {
    std::printf("plan infeasible!\n");
    return false;
  }
  const core::RunOutput part = exp.run_partitioned(plan);
  const opt::CompositionalityReport rep =
      opt::compare_expected_vs_simulated(prof, plan, part.results);

  Table t({"task", "sets", "expected misses", "simulated misses",
           "|diff| / total %"});
  for (const auto& row : rep.rows) {
    t.row()
        .cell(row.task)
        .integer(row.sets)
        .integer(static_cast<std::int64_t>(row.expected))
        .integer(static_cast<std::int64_t>(row.simulated))
        .num(100.0 * row.rel_to_total, 3)
        .done();
  }
  t.print();
  std::printf(
      "max per-task |expected - simulated| relative to total simulated "
      "misses: %.3f%%  (paper: <= 2%%)  [%s]\n",
      100.0 * rep.max_rel_to_total,
      rep.within(0.02) ? "within the paper's bound" : "above the paper's bound");
  std::printf("functional verification: %s\n",
              part.verified ? "PASS" : "FAIL");
  return rep.within(0.02) && part.verified;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_jobs(argc, argv);
  const auto store = bench::parse_trace_store(argc, argv);
  bench::warn_unknown_flags(argc, argv);
  const bool app1 = run_app(
      "Figure 3a: expected vs simulated misses — 2 jpegs & canny",
      bench::app1_factory(), bench::app1_experiment(jobs, store));
  const bool app2 =
      run_app("Figure 3b: expected vs simulated misses — mpeg2",
              bench::app2_factory(), bench::app2_experiment(jobs, store));
  return app1 && app2 ? 0 : 1;
}
