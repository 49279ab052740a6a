#include "opt/planner.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"

namespace cms::opt {

namespace {

std::uint32_t next_pow2(std::uint32_t v) {
  if (v <= 1) return 1;
  std::uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::uint32_t buffer_sets(const kpn::SharedBufferInfo& buf,
                          const mem::CacheConfig& l2, const PlannerConfig& cfg) {
  switch (buf.kind) {
    case kpn::BufferKind::kFifo:
      return std::min(cfg.max_fifo_sets, sets_for_bytes(buf.footprint, l2));
    case kpn::BufferKind::kFrame:
      return cfg.frame_buffer_sets;
    case kpn::BufferKind::kSegment:
      return cfg.segment_sets;
  }
  return 1;
}

/// Assign contiguous base offsets to the entries; returns used sets.
std::uint32_t layout(PartitionPlan& plan) {
  std::uint32_t base = 0;
  for (auto& e : plan.entries) {
    e.partition = {base, e.sets};
    base += e.sets;
  }
  return base;
}

}  // namespace

const PlanEntry* PartitionPlan::find(const std::string& n) const {
  for (const auto& e : entries)
    if (e.name == n) return &e;
  return nullptr;
}

bool PartitionPlan::identical(const PartitionPlan& other) const {
  if (feasible != other.feasible || total_sets != other.total_sets ||
      used_sets != other.used_sets || spare != other.spare ||
      expected_task_misses != other.expected_task_misses ||
      entries.size() != other.entries.size())
    return false;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const PlanEntry& a = entries[i];
    const PlanEntry& b = other.entries[i];
    if (a.client != b.client || a.name != b.name || a.kind != b.kind ||
        a.is_task != b.is_task || a.sets != b.sets ||
        a.partition != b.partition || a.expected_misses != b.expected_misses)
      return false;
  }
  return true;
}

double auto_curvature_eps(const MissProfile& prof) {
  double eps = 0.0;
  for (const std::string& name : prof.task_names()) {
    const auto& curve = prof.curve(name);
    double lo = 0.0, hi = 0.0;
    bool first = true;
    for (const auto& [sets, point] : curve) {
      const double m = point.misses.mean();
      lo = first ? m : std::min(lo, m);
      hi = first ? m : std::max(hi, m);
      first = false;
    }
    const double range = hi - lo;
    if (range <= 0.0) continue;  // flat curve: any eps is lossless
    for (const auto& [sets, point] : curve)
      if (point.misses.count() >= 2)
        eps = std::max(eps, point.misses.stddev() / range);
  }
  return std::min(eps, 0.05);
}

void PartitionPlan::apply(mem::PartitionedCache& cache) const {
  cache.partition_table().clear();
  for (const auto& e : entries) {
    const bool ok = cache.partition_table().assign(e.client, e.partition);
    assert(ok && "plan does not fit this cache");
    (void)ok;
  }
  if (spare.num_sets > 0) cache.partition_table().set_default_partition(spare);
  cache.set_partitioning_enabled(true);
}

std::uint32_t sets_for_bytes(std::uint64_t bytes, const mem::CacheConfig& l2,
                             bool round_pow2) {
  const std::uint64_t lines = (bytes + l2.line_bytes - 1) / l2.line_bytes;
  const std::uint64_t sets = (lines + l2.ways - 1) / l2.ways;
  const auto s = static_cast<std::uint32_t>(std::max<std::uint64_t>(1, sets));
  return round_pow2 ? next_pow2(s) : s;
}

PartitionPlan plan_partitions(
    const MissProfile& prof,
    const std::vector<std::pair<TaskId, std::string>>& tasks,
    const std::vector<kpn::SharedBufferInfo>& buffers,
    const mem::CacheConfig& l2, const PlannerConfig& cfg) {
  PartitionPlan plan;
  plan.total_sets = l2.num_sets();

  // 1. Buffers first (fixed policy). If the all-hit FIFO allocations do
  // not leave room for the tasks (small caches), degrade the FIFO cap —
  // FIFOs then take some predictable misses instead of starving tasks.
  // Frame buffers with measured curves go to the MCKP below; only the
  // remaining buffers have fixed-policy allocations.
  auto is_mckp_frame = [&](const kpn::SharedBufferInfo& b) {
    return b.kind == kpn::BufferKind::kFrame && prof.has(b.name);
  };
  PlannerConfig effective = cfg;
  std::uint32_t buffer_total = 0;
  std::vector<PlanEntry> buffer_entries;
  for (;;) {
    buffer_total = 0;
    buffer_entries.clear();
    for (const auto& b : buffers) {
      PlanEntry e;
      e.client = mem::ClientId::buffer(b.id);
      e.name = b.name;
      e.kind = b.kind;
      e.sets = is_mckp_frame(b) ? 0 : buffer_sets(b, l2, effective);
      buffer_total += e.sets;
      buffer_entries.push_back(std::move(e));
    }
    if (buffer_total <= plan.total_sets / 2 || effective.max_fifo_sets <= 1)
      break;
    effective.max_fifo_sets /= 2;
    if (effective.segment_sets > 1 && buffer_total > plan.total_sets)
      effective.segment_sets /= 2;
  }

  // 2. Tasks AND frame buffers: MCKP over the measured miss curves within
  // what remains. (FIFOs and segments keep their fixed policy; frame
  // buffers benefit from sizing to their measured reuse, one of the
  // "other experiments" the paper's generic mechanism enables.)
  std::uint32_t fixed_total = 0;
  std::vector<PlanEntry> fixed_entries;
  std::vector<const kpn::SharedBufferInfo*> frame_bufs;
  for (std::size_t i = 0; i < buffers.size(); ++i) {
    const auto& b = buffers[i];
    if (is_mckp_frame(b)) {
      frame_bufs.push_back(&b);
    } else {
      fixed_total += buffer_entries[i].sets;
      fixed_entries.push_back(buffer_entries[i]);
    }
  }
  if (fixed_total >= plan.total_sets) {
    log_warn() << "partition plan infeasible: fixed buffers need "
               << fixed_total << " of " << plan.total_sets << " sets";
    return plan;
  }

  const std::uint32_t task_capacity = plan.total_sets - fixed_total;
  // kAutoCurvatureEps: resolve the thinning tolerance from the profile's
  // measured jitter spread once, for every group.
  const double curve_eps = cfg.curvature_eps < 0.0
                               ? auto_curvature_eps(prof)
                               : cfg.curvature_eps;
  std::vector<MckpGroup> groups;
  auto make_group = [&](const std::string& name) {
    MckpGroup g;
    g.name = name;
    for (const std::uint32_t sz : prof.sizes(name))
      g.items.push_back({sz, prof.misses(name, sz)});
    if (g.items.empty()) {
      g.items.push_back({1, 0.0});  // unprofiled client
    } else {
      // Dense replay grids are mostly flat; dominance (exact) plus
      // optional curvature thinning keeps the DP fast at 64+ points.
      prune_mckp_items(g.items, curve_eps);
    }
    return g;
  };
  for (const auto& [id, name] : tasks) groups.push_back(make_group(name));
  for (const auto* b : frame_bufs) groups.push_back(make_group(b->name));

  const MckpSolution sol = solve_mckp_dp(groups, task_capacity);
  if (!sol.feasible) {
    log_warn() << "partition plan infeasible: task MCKP has no solution in "
               << task_capacity << " sets";
    return plan;
  }

  for (std::size_t g = 0; g < groups.size(); ++g) {
    const MckpItem& it = groups[g].items[static_cast<std::size_t>(sol.choice[g])];
    PlanEntry e;
    if (g < tasks.size()) {
      e.client = mem::ClientId::task(tasks[g].first);
      e.name = tasks[g].second;
      e.is_task = true;
    } else {
      const auto* b = frame_bufs[g - tasks.size()];
      e.client = mem::ClientId::buffer(b->id);
      e.name = b->name;
      e.kind = kpn::BufferKind::kFrame;
    }
    e.sets = it.size;
    e.expected_misses = it.cost;
    plan.entries.push_back(std::move(e));
  }
  plan.expected_task_misses = sol.total_cost;
  for (auto& e : fixed_entries) plan.entries.push_back(std::move(e));

  plan.used_sets = layout(plan);
  assert(plan.used_sets <= plan.total_sets);
  plan.spare = {plan.used_sets, plan.total_sets - plan.used_sets};
  if (plan.spare.num_sets == 0) plan.spare = {0, plan.total_sets};
  plan.feasible = true;
  return plan;
}

PartitionPlan uniform_plan(
    std::uint32_t sets_per_task,
    const std::vector<std::pair<TaskId, std::string>>& tasks,
    const std::vector<kpn::SharedBufferInfo>& buffers,
    const mem::CacheConfig& l2, const PlannerConfig& cfg) {
  PartitionPlan plan;
  for (const auto& [id, name] : tasks) {
    PlanEntry e;
    e.client = mem::ClientId::task(id);
    e.name = name;
    e.is_task = true;
    e.sets = sets_per_task;
    plan.entries.push_back(std::move(e));
  }
  for (const auto& b : buffers) {
    PlanEntry e;
    e.client = mem::ClientId::buffer(b.id);
    e.name = b.name;
    e.kind = b.kind;
    // Frame buffers sweep alongside the tasks so their miss curves are
    // measured too; FIFOs and segments keep the fixed policy.
    e.sets = b.kind == kpn::BufferKind::kFrame ? sets_per_task
                                               : buffer_sets(b, l2, cfg);
    plan.entries.push_back(std::move(e));
  }
  plan.used_sets = layout(plan);
  plan.total_sets = plan.used_sets;
  plan.spare = {0, plan.total_sets};
  plan.feasible = true;
  return plan;
}

}  // namespace cms::opt
