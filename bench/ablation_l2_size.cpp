// Ablation A — L2 size sweep, shared vs partitioned, both applications.
//
// Generalizes the paper's single extra data point (mpeg2 with a doubled
// shared L2): the crossover where a shared cache becomes big enough to
// absorb the whole working set — and the regime below it, where the
// partitioned cache wins by eliminating inter-task conflicts.
#include <cstdio>
#include <string>

#include "bench/bench_common.hpp"
#include "common/table.hpp"

using namespace cms;

namespace {

void sweep(const char* title, const core::AppFactory& factory,
           const core::ExperimentConfig& base) {
  print_banner(title);
  Table t({"L2 KB", "shared misses", "shared rate %", "part misses",
           "part rate %", "ratio", "shared CPI", "part CPI"});
  std::string shared_no_worse;  // sizes where partitioning does not win
  for (const std::uint32_t kb : {32u, 48u, 64u, 96u, 128u, 192u, 256u}) {
    core::ExperimentConfig cfg = base;
    cfg.platform.hier.l2.size_bytes = kb * 1024;
    cfg.profile_runs = 1;
    core::Experiment exp(factory, cfg);
    const core::RunOutput shared = exp.run_shared();
    const opt::MissProfile prof = exp.profile();
    const opt::PartitionPlan plan = exp.plan(prof);
    if (!plan.feasible) {
      t.row().integer(kb).cell("plan infeasible").done();
      continue;
    }
    const core::RunOutput part = exp.run_partitioned(plan);
    if (shared.results.l2_misses <= part.results.l2_misses)
      shared_no_worse += (shared_no_worse.empty() ? "" : ", ") +
                         std::to_string(kb) + " KB";
    const double ratio =
        part.results.l2_misses
            ? static_cast<double>(shared.results.l2_misses) /
                  static_cast<double>(part.results.l2_misses)
            : 0.0;
    t.row()
        .integer(kb)
        .integer(static_cast<std::int64_t>(shared.results.l2_misses))
        .num(100.0 * shared.results.l2_miss_rate())
        .integer(static_cast<std::int64_t>(part.results.l2_misses))
        .num(100.0 * part.results.l2_miss_rate())
        .num(ratio)
        .num(shared.results.mean_cpi(), 3)
        .num(part.results.mean_cpi(), 3)
        .done();
  }
  t.print();
  if (shared_no_worse.empty())
    std::printf("shape check: partitioning has fewer L2 misses than shared "
                "at every size with a feasible plan.\n");
  else
    std::printf("shape check: shared has no more L2 misses than "
                "partitioned at %s.\n", shared_no_worse.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_jobs(argc, argv);
  const auto store = bench::parse_trace_store(argc, argv);
  sweep("Ablation A1: L2 size sweep — 2 jpegs & canny", bench::app1_factory(),
        bench::app1_experiment(jobs, store));
  sweep("Ablation A2: L2 size sweep — mpeg2", bench::app2_factory(),
        bench::app2_experiment(jobs, store));
  return 0;
}
