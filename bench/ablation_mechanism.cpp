// Ablation F — partitioning mechanism comparison (paper section 2).
//
// The paper argues that column caching (way partitioning, [10]/[8])
// "severely restricts the granularity of cache allocation to the
// associativity of the cache": on a 4-way L2, at most four clients can be
// isolated, so tasks and buffers must share way groups and keep
// interfering. It also discusses [4]'s "shared pool" (real-time tasks get
// partitions, the rest share). This harness measures all four points on
// application 1:
//   shared  |  way-partitioned (4 groups)  |  set-partitioned, buffers
//   only (tasks in a shared pool)  |  full set partitioning (the paper).
#include <cstdio>

#include "bench/bench_common.hpp"
#include "common/table.hpp"
#include "sim/engine.hpp"

using namespace cms;

namespace {

struct MechanismResult {
  std::uint64_t misses = 0;
  double rate = 0.0;
  double cpi = 0.0;
  bool verified = false;
};

MechanismResult run_with(
    const core::AppFactory& factory, const core::ExperimentConfig& cfg,
    const std::function<void(mem::PartitionedCache&, apps::Application&)>&
        configure) {
  apps::Application app = factory();
  sim::PlatformConfig pc = cfg.platform;
  pc.rt_data = app.rt_data;
  pc.rt_bss = app.rt_bss;
  sim::Platform platform(pc);
  mem::PartitionedCache& l2 = platform.hierarchy().l2();
  for (const auto& b : app.net->buffers())
    l2.interval_table().add(b.base, b.footprint, b.id);
  configure(l2, app);

  sim::Os os(cfg.policy, pc.hier.num_procs);
  sim::TimingEngine engine(platform, os, app.net->tasks());
  engine.set_buffer_names(app.net->buffer_names());
  const sim::SimResults res = engine.run();

  MechanismResult out;
  out.misses = res.l2_misses;
  out.rate = res.l2_miss_rate();
  out.cpi = res.mean_cpi();
  out.verified = app.verify() && !res.deadlocked;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  print_banner("Ablation F: set vs way partitioning vs shared pool (app 1)");

  const auto factory = bench::app1_factory();
  const auto cfg = bench::app1_experiment(bench::parse_jobs(argc, argv),
                                          bench::parse_trace_store(argc, argv));
  bench::warn_unknown_flags(argc, argv);

  // The full set-partitioned plan (paper's method) for reference & reuse.
  core::Experiment exp(factory, cfg);
  const opt::MissProfile prof = exp.profile();
  const opt::PartitionPlan plan = exp.plan(prof);
  if (!plan.feasible) {
    std::printf("plan infeasible!\n");
    return 1;
  }

  Table t({"mechanism", "L2 misses", "miss rate %", "CPI", "verified"});
  auto add_row = [&t](const char* name, const MechanismResult& r) {
    t.row()
        .cell(name)
        .integer(static_cast<std::int64_t>(r.misses))
        .num(100.0 * r.rate)
        .num(r.cpi, 3)
        .cell(r.verified ? "yes" : "NO")
        .done();
  };

  add_row("shared (baseline)",
          run_with(factory, cfg, [](mem::PartitionedCache& l2,
                                    apps::Application&) {
            l2.set_mode(mem::PartitionMode::kShared);
          }));

  add_row("way-partitioned, 4 groups (column caching)",
          run_with(factory, cfg, [](mem::PartitionedCache& l2,
                                    apps::Application& app) {
            l2.set_mode(mem::PartitionMode::kWayPartitioned);
            // Only `ways` isolation groups exist on a 4-way cache: clients
            // are dealt into them round-robin — the granularity limit the
            // paper criticizes.
            const std::uint32_t ways = l2.config().ways;
            std::uint32_t next = 0;
            for (const auto& p : app.net->processes()) {
              l2.assign_ways(mem::ClientId::task(p->id()), {next % ways, 1});
              ++next;
            }
            for (const auto& b : app.net->buffers()) {
              l2.assign_ways(mem::ClientId::buffer(b.id), {next % ways, 1});
              ++next;
            }
          }));

  add_row("set-partitioned buffers, tasks in shared pool",
          run_with(factory, cfg, [&plan](mem::PartitionedCache& l2,
                                         apps::Application&) {
            // Buffers keep their exclusive set ranges; every task falls
            // into the default partition = all remaining sets ([4]-style
            // shared pool).
            std::uint32_t base = 0;
            for (const auto& e : plan.entries) {
              if (e.is_task) continue;
              l2.partition_table().assign(e.client, {base, e.sets});
              base += e.sets;
            }
            l2.partition_table().set_default_partition(
                {base, l2.num_sets() - base});
            l2.set_mode(mem::PartitionMode::kSetPartitioned);
          }));

  add_row("set-partitioned, full plan (this paper)",
          run_with(factory, cfg, [&plan](mem::PartitionedCache& l2,
                                         apps::Application&) {
            plan.apply(l2);
          }));

  t.print();
  std::printf(
      "shape check: way partitioning cannot isolate 15 tasks + ~20 buffers "
      "in 4 ways (intra-group conflicts remain and each group only gets "
      "1/4 of the capacity); the buffers-only shared pool removes the "
      "buffer interference but leaves task-vs-task conflicts; full set "
      "partitioning removes both.\n");
  return 0;
}
