// Ablation B — communication-buffer allocation policies (paper section 3).
//
// The paper argues a buffer's cache must either make all accesses hit
// (partition >= buffer size), make all accesses miss (no cache), or the
// miss count becomes rate-dependent and unpredictable. This harness
// quantifies the trade-off: FIFO partitions at 1x / 1/2 / 1/4 of the
// all-hit size, and frame buffers planned by measured curves vs pinned
// small.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "common/table.hpp"

using namespace cms;

namespace {

std::uint64_t fifo_misses(const sim::SimResults& res,
                          const std::vector<kpn::SharedBufferInfo>& buffers) {
  std::uint64_t n = 0;
  for (const auto& b : buffers)
    if (b.kind == kpn::BufferKind::kFifo) {
      for (const auto& rb : res.buffers)
        if (rb.name == b.name) n += rb.l2.misses;
    }
  return n;
}

}  // namespace

int main(int argc, char** argv) {
  print_banner("Ablation B: buffer allocation policy (mpeg2)");

  const auto factory = bench::app2_factory();
  const auto base = bench::app2_experiment(
      bench::parse_jobs(argc, argv), bench::parse_trace_store(argc, argv));
  core::Experiment probe(factory, base);
  const auto buffers = probe.buffers();
  const opt::MissProfile prof = probe.profile();

  Table t({"fifo policy", "fifo L2 misses", "total L2 misses", "verified"});
  for (const std::uint32_t cap : {256u, 4u, 2u, 1u}) {
    core::ExperimentConfig cfg = base;
    cfg.planner.max_fifo_sets = cap;
    core::Experiment exp(factory, cfg);
    const opt::PartitionPlan plan = exp.plan(prof);
    if (!plan.feasible) continue;
    const core::RunOutput out = exp.run_partitioned(plan);
    const std::string label =
        cap >= 256 ? "all-hit (footprint)" : ("cap " + std::to_string(cap) + " sets");
    t.row()
        .cell(label)
        .integer(static_cast<std::int64_t>(fifo_misses(out.results, buffers)))
        .integer(static_cast<std::int64_t>(out.results.l2_misses))
        .cell(out.verified ? "yes" : "NO")
        .done();
  }
  t.print();
  std::printf(
      "shape check: the all-hit policy pins FIFO misses at their cold "
      "minimum; shrinking the partitions below the footprint makes FIFO "
      "misses grow — the rate-dependent regime the paper avoids.\n");

  print_banner("Ablation B2: frame buffers — measured curves vs pinned small");
  Table t2({"frame policy", "frame L2 misses", "total L2 misses"});
  for (const bool planned : {true, false}) {
    core::ExperimentConfig cfg = base;
    core::Experiment exp(factory, cfg);
    opt::PartitionPlan plan;
    if (planned) {
      plan = exp.plan(prof);
    } else {
      // Strip the frame curves so the planner falls back to the fixed
      // frame_buffer_sets policy.
      opt::MissProfile tasks_only;
      for (const auto& [id, name] : exp.tasks())
        for (const std::uint32_t s : cfg.profile_grid)
          if (prof.curve(name).contains(s))
            tasks_only.add_sample(name, s, prof.misses(name, s), 0, 0);
      core::ExperimentConfig small = cfg;
      small.planner.frame_buffer_sets = 8;
      core::Experiment exp2(factory, small);
      plan = exp2.plan(tasks_only);
    }
    if (!plan.feasible) continue;
    const core::RunOutput out = exp.run_partitioned(plan);
    std::uint64_t frame_misses = 0;
    for (const auto& rb : out.results.buffers)
      for (const auto& b : buffers)
        if (b.kind == kpn::BufferKind::kFrame && rb.name == b.name)
          frame_misses += rb.l2.misses;
    t2.row()
        .cell(planned ? "MCKP on measured curves" : "pinned 8 sets")
        .integer(static_cast<std::int64_t>(frame_misses))
        .integer(static_cast<std::int64_t>(out.results.l2_misses))
        .done();
  }
  t2.print();
  return 0;
}
