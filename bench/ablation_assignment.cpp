// Ablation E — task-to-processor assignment and the static-assignment
// throughput model of paper section 3.1.
//
// "In order to have an exact analytical model ... a static assigning of
// tasks to the processors is required." This harness takes the measured
// per-task execution times t_i at the planned cache sizes, optimizes the
// static assignment (LPT / local search / exact), and compares the model's
// predicted bottleneck time with simulated static and migrating runs.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "common/table.hpp"
#include "opt/throughput.hpp"
#include "opt/throughput_planner.hpp"

using namespace cms;

namespace {

void run_app(const char* title, const core::AppFactory& factory,
             const core::ExperimentConfig& base) {
  print_banner(title);
  core::Experiment exp(factory, base);
  const opt::MissProfile prof = exp.profile();
  const opt::PartitionPlan plan = exp.plan(prof);
  if (!plan.feasible) {
    std::printf("plan infeasible!\n");
    return;
  }

  // Model inputs: t_i(c(tau_i)) from the isolation profiles.
  std::vector<opt::TaskLoad> loads;
  for (const auto& e : plan.entries) {
    if (!e.is_task) continue;
    loads.push_back({e.client.id, e.name, prof.active_cycles(e.name, e.sets)});
  }
  const std::uint32_t procs = base.platform.hier.num_procs;

  const opt::Assignment lpt = opt::assign_lpt(loads, procs);
  const opt::Assignment ls = opt::assign_local_search(loads, procs);
  const opt::Assignment exact = loads.size() <= 15
                                    ? opt::assign_exact(loads, procs)
                                    : ls;

  Table t({"assignment", "model makespan (cycles)", "throughput @300MHz (1/s)"});
  for (const auto& [name, a] :
       {std::pair{"LPT", &lpt}, std::pair{"LPT+local search", &ls},
        std::pair{"exact B&B", &exact}}) {
    t.row()
        .cell(name)
        .integer(static_cast<std::int64_t>(a->makespan))
        .num(opt::throughput_per_second(a->makespan, 300.0), 2)
        .done();
  }
  t.print();

  // Joint optimization (paper section 3.1): shift cache toward the
  // bottleneck processor's tasks while it lowers max_k T(p_k).
  opt::ThroughputPlannerConfig tcfg;
  tcfg.base = base.planner;
  tcfg.num_procs = procs;
  const opt::ThroughputPlan tp = opt::plan_for_throughput(
      prof, exp.tasks(), exp.buffers(), base.platform.hier.l2, tcfg);
  if (tp.feasible) {
    std::printf(
        "joint cache+assignment optimization: model makespan %.0f -> %.0f "
        "cycles in %d iterations (expected misses %.0f vs miss-optimal "
        "%.0f)\n",
        ls.makespan, tp.model_makespan, tp.iterations,
        tp.partition.expected_task_misses, plan.expected_task_misses);
  }

  // Simulated: migrating scheduler vs the optimized static assignment.
  const core::RunOutput mig = exp.run_partitioned(plan);
  core::ExperimentConfig stat_cfg = base;
  stat_cfg.policy = sim::SchedPolicy::kStatic;
  core::Experiment stat_exp(factory, stat_cfg);
  const core::RunOutput stat = stat_exp.run_partitioned(plan);

  bench::print_run_summary("simulated migrating", mig);
  bench::print_run_summary("simulated static RR", stat);
  std::printf(
      "model bottleneck %.0f vs simulated makespans: the static model is "
      "an upper-bound-style estimate (it ignores pipeline overlap slack, "
      "switching and idle gaps the simulator charges).\n",
      exact.makespan);
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_jobs(argc, argv);
  const auto store = bench::parse_trace_store(argc, argv);
  bench::warn_unknown_flags(argc, argv);
  run_app("Ablation E1: task-to-processor assignment — 2 jpegs & canny",
          bench::app1_factory(), bench::app1_experiment(jobs, store));
  run_app("Ablation E2: task-to-processor assignment — mpeg2",
          bench::app2_factory(), bench::app2_experiment(jobs, store));
  return 0;
}
