// Table 1 — L2 sets allocated to the tasks and shared static segments of
// application 1 (two JPEG decoders + Canny edge detection).
//
// Reproduces the paper's flow: isolation miss profiles M_i(z_k) over a
// power-of-two grid, then the MCKP ("ILP") optimizer picks the allocation
// minimizing total expected misses within the L2 capacity left after the
// communication buffers take their exclusive partitions.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "common/table.hpp"

using namespace cms;

int main(int argc, char** argv) {
  print_banner("Table 1: L2 allocated sets for 2 jpegs & canny");

  core::Experiment exp(bench::app1_factory(),
                       bench::app1_experiment(
                           bench::parse_jobs(argc, argv),
                           bench::parse_trace_store(argc, argv)));
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

  Table data({"data segment / buffer", "alloc. L2 sets"});
  for (const auto& e : plan.entries) {
    if (e.is_task) continue;
    if (e.kind == kpn::BufferKind::kSegment || e.kind == kpn::BufferKind::kFrame)
      data.row().cell(e.name).integer(e.sets).done();
  }
  data.print();

  Table fifos({"fifo", "alloc. L2 sets"});
  for (const auto& e : plan.entries)
    if (!e.is_task && e.kind == kpn::BufferKind::kFifo)
      fifos.row().cell(e.name).integer(e.sets).done();
  fifos.print();

  std::printf(
      "\ntotal: %u of %u sets allocated (%u spare), expected task misses "
      "%.0f\n",
      plan.used_sets, plan.total_sets, plan.total_sets - plan.used_sets,
      plan.expected_task_misses);
  std::printf(
      "paper's Table 1 (for scale, 2048-set L2): FrontEnd 4, IDCT 1, Raster "
      "32/16, BackEnd 16; canny tasks 4..16; data/bss segments 2..4 sets\n");
  return 0;
}
