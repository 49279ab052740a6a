// Figure 2 — "Shared vs best partitioned cache for every task and
// communication buffer", plus the headline numbers of Section 5:
//   * application 1: ~5x fewer L2 misses, miss rate 9.46% -> 2.21%,
//     CPI 1.4 -> 1.1 (~20% lower);
//   * application 2: ~6.5x fewer L2 misses, miss rate 5.1% -> 0.8%,
//     CPI 1.7-1.8 -> 1.6-1.7 (~4% lower);
//   * application 2 with a doubled *shared* L2 approaches (but must pay
//     2x the capacity for) the partitioned result — the paper's "1 MB
//     shared L2" data point.
//
// Exits 1 when, for either application, the plan is infeasible, the
// shared, partitioned or 2x-L2 run deadlocks or fails functional
// verification, or the partitioned run does not have fewer L2 misses
// than the shared one.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "common/table.hpp"

using namespace cms;

namespace {

/// A run counts when it neither deadlocked nor failed verification.
bool sound(const core::RunOutput& out) {
  return out.verified && !out.results.deadlocked;
}

/// Prints one application's comparison; true when the plan is feasible,
/// all three runs are sound and partitioning cut the L2 misses.
bool run_app(const char* title, const core::AppFactory& factory,
             const core::ExperimentConfig& cfg, const char* paper_line) {
  print_banner(title);
  core::Experiment exp(factory, cfg);

  const core::RunOutput shared = exp.run_shared();
  const opt::MissProfile prof = exp.profile();
  const opt::PartitionPlan plan = exp.plan(prof);
  if (!plan.feasible) {
    std::printf("plan infeasible!\n");
    return false;
  }
  const core::RunOutput part = exp.run_partitioned(plan);

  Table t({"client", "kind", "shared misses", "partitioned misses", "sets"});
  for (const auto& task : shared.results.tasks) {
    const auto* p = part.results.find_task(task.name);
    const auto* e = plan.find(task.name);
    t.row()
        .cell(task.name)
        .cell("task")
        .integer(static_cast<std::int64_t>(task.l2.misses))
        .integer(static_cast<std::int64_t>(p != nullptr ? p->l2.misses : 0))
        .integer(e != nullptr ? e->sets : 0)
        .done();
  }
  for (const auto& buf : shared.results.buffers) {
    const auto* p = part.results.find_buffer(buf.name);
    const auto* e = plan.find(buf.name);
    t.row()
        .cell(buf.name)
        .cell("buffer")
        .integer(static_cast<std::int64_t>(buf.l2.misses))
        .integer(static_cast<std::int64_t>(p != nullptr ? p->l2.misses : 0))
        .integer(e != nullptr ? e->sets : 0)
        .done();
  }
  t.print();

  bench::print_run_summary("shared", shared);
  bench::print_run_summary("partitioned", part);

  const double ratio =
      part.results.l2_misses
          ? static_cast<double>(shared.results.l2_misses) /
                static_cast<double>(part.results.l2_misses)
          : 0.0;
  const double cpi_red = shared.results.mean_cpi() > 0
                             ? 100.0 * (shared.results.mean_cpi() -
                                        part.results.mean_cpi()) /
                                   shared.results.mean_cpi()
                             : 0.0;
  std::printf("=> %.2fx fewer L2 misses; miss rate %.2f%% -> %.2f%%; "
              "CPI reduced %.1f%%\n",
              ratio, 100.0 * shared.results.l2_miss_rate(),
              100.0 * part.results.l2_miss_rate(), cpi_red);
  std::printf("   paper: %s\n", paper_line);

  // Doubled shared L2 (the paper's 1 MB point, scaled).
  const core::RunOutput big = exp.run_shared_with_l2(
      2 * cfg.platform.hier.l2.size_bytes);
  bench::print_run_summary("shared, 2x L2", big);
  std::printf("   paper (mpeg2): 1MB shared L2 -> 0.6%% miss rate, 1.7 CPI "
              "(partitioned 512KB achieved 0.8%%)\n");

  const bool fewer = part.results.l2_misses < shared.results.l2_misses;
  if (!fewer) std::printf("partitioning did not reduce the L2 misses\n");
  return sound(shared) && sound(part) && sound(big) && fewer;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_jobs(argc, argv);
  const auto store = bench::parse_trace_store(argc, argv);
  bench::warn_unknown_flags(argc, argv);
  const bool app1 = run_app(
      "Figure 2a: 2 jpegs & canny — shared vs best partitioned cache",
      bench::app1_factory(), bench::app1_experiment(jobs, store),
      "5x fewer misses, 9.46% -> 2.21%, CPI 1.4 -> 1.1 (-20%)");
  const bool app2 = run_app(
      "Figure 2b: mpeg2 — shared vs best partitioned cache",
      bench::app2_factory(), bench::app2_experiment(jobs, store),
      "6.5x fewer misses, 5.1% -> 0.8%, CPI 1.7-1.8 -> 1.6-1.7 (-4%)");
  return app1 && app2 ? 0 : 1;
}
