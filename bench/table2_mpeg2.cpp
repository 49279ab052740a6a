// Table 2 — L2 sets allocated to the tasks and shared static segments of
// application 2 (the 13-task MPEG2 decoder).
#include <cstdio>

#include "bench/bench_common.hpp"
#include "common/table.hpp"

using namespace cms;

int main(int argc, char** argv) {
  print_banner("Table 2: L2 allocated sets to tasks for mpeg2");

  core::Experiment exp(bench::app2_factory(),
                       bench::app2_experiment(
                           bench::parse_jobs(argc, argv),
                           bench::parse_trace_store(argc, argv)));
  bench::warn_unknown_flags(argc, argv);
  std::printf("profiling task miss curves (grid of %zu sizes, %u runs each)...\n",
              exp.config().profile_grid.size(), exp.config().profile_runs);
  const opt::MissProfile prof = exp.profile();
  const opt::PartitionPlan plan = exp.plan(prof);
  if (!plan.feasible) {
    std::printf("plan infeasible!\n");
    return 1;
  }

  Table tasks({"task", "alloc. L2 sets", "expected misses"});
  for (const auto& e : plan.entries) {
    if (!e.is_task) continue;
    tasks.row()
        .cell(e.name)
        .integer(e.sets)
        .integer(static_cast<std::int64_t>(e.expected_misses))
        .done();
  }
  tasks.print();

  Table data({"data segment / frame buffer", "alloc. L2 sets"});
  for (const auto& e : plan.entries) {
    if (e.is_task) continue;
    if (e.kind == kpn::BufferKind::kSegment || e.kind == kpn::BufferKind::kFrame)
      data.row().cell(e.name).integer(e.sets).done();
  }
  data.print();

  std::printf(
      "\ntotal: %u of %u sets allocated (%u spare), expected task misses "
      "%.0f\n",
      plan.used_sets, plan.total_sets, plan.total_sets - plan.used_sets,
      plan.expected_task_misses);
  std::printf(
      "paper's Table 2 (for scale, 2048-set L2): input 2, vld 4, hdr 16, "
      "isiq 8, memMan 1, idct 4, add 4, decMV 8, predict 16, predictRD 2, "
      "writeMB 8, store 2, output 1; data/bss 1..8 sets\n");
  return 0;
}
