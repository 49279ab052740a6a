#include "mem/hierarchy.hpp"

#include <algorithm>
#include <cassert>

namespace cms::mem {

MemoryHierarchy::MemoryHierarchy(const HierarchyConfig& cfg)
    : cfg_(cfg), bus_(cfg.bus), l2_(cfg.l2, cfg.l2_seed()), dram_(cfg.dram) {
  assert(cfg_.num_procs > 0);
  l1s_.reserve(cfg_.num_procs);
  for (std::uint32_t p = 0; p < cfg_.num_procs; ++p)
    l1s_.push_back(std::make_unique<SetAssocCache>(cfg_.l1, cfg_.seed + p));
}

Cycle MemoryHierarchy::access_line(ProcId proc, TaskId task, Addr line_addr,
                                   AccessType type, Cycle now,
                                   AccessOutcome& outcome) {
  SetAssocCache& l1 = *l1s_[static_cast<std::size_t>(proc)];
  ++traffic_.l1_accesses;
  const AccessResult l1_res = l1.access(line_addr, type, ClientId::task(task));
  if (l1_res.hit) return now + cfg_.l1_hit_latency;

  // L1 miss: go over the bus to the shared L2.
  outcome.worst = std::max(outcome.worst, ServedBy::kL2);
  const Cycle grant = bus_.request(now + cfg_.l1_hit_latency);
  ++traffic_.l2_accesses;

  // A dirty L1 victim is written back into the L2 (state update only; its
  // latency is off the critical path of this access).
  if (l1_res.writeback) {
    ++traffic_.l2_accesses;
    const PartitionedCache::Result wb =
        l2_.access(task, l1_res.victim_line, AccessType::kWrite);
    if (sink_ != nullptr)
      sink_->on_l2_access({wb.client, task, l1_res.victim_line,
                           AccessType::kWrite, /*l1_writeback=*/true});
  }

  const PartitionedCache::Result l2_res = l2_.access(task, line_addr, type);
  if (sink_ != nullptr)
    sink_->on_l2_access({l2_res.client, task, line_addr, type});
  Cycle done = grant + cfg_.l2_hit_latency;
  if (!l2_res.raw.hit) {
    outcome.worst = ServedBy::kMemory;
    ++outcome.l2_misses;
    ++traffic_.dram_accesses;
    traffic_.offchip_bytes += cfg_.l2.line_bytes;
    if (!cfg_.uniform_l2_timing) {
      done = dram_.access(line_addr, done);
      // Return transfer over the bus.
      done += bus_.config().cycles_per_transaction;
    }
  }
  if (l2_res.raw.writeback) {
    // Dirty L2 victim goes off-chip; bank occupancy is modeled, the
    // requesting processor does not wait for it.
    ++traffic_.dram_accesses;
    traffic_.offchip_bytes += cfg_.l2.line_bytes;
    if (!cfg_.uniform_l2_timing) dram_.access(l2_res.raw.victim_line, done);
  }
  return done;
}

AccessOutcome MemoryHierarchy::access(ProcId proc, TaskId task, Addr addr,
                                      std::uint32_t size, AccessType type,
                                      Cycle now) {
  assert(proc >= 0 && static_cast<std::uint32_t>(proc) < cfg_.num_procs);
  AccessOutcome outcome;
  const SetAssocCache& l1 = *l1s_[static_cast<std::size_t>(proc)];
  const Addr first = l1.line_of(addr);
  const Addr last = l1.line_of(addr + (size ? size : 1) - 1);
  Cycle t = now;
  for (Addr a = first; a <= last; a += cfg_.l1.line_bytes)
    t = access_line(proc, task, a, type, t, outcome);
  outcome.finish = t;
  return outcome;
}

bool MemoryHierarchy::access_l1_hit(ProcId proc, Addr addr,
                                    std::uint32_t size, AccessType type) {
  SetAssocCache& l1 = *l1s_[static_cast<std::size_t>(proc)];
  if (l1.line_of(addr) != l1.line_of(addr + (size ? size : 1) - 1) ||
      !l1.access_if_hit(addr, type))
    return false;
  ++traffic_.l1_accesses;
  return true;
}

void MemoryHierarchy::on_task_switch(ProcId proc) {
  SetAssocCache& l1 = *l1s_[static_cast<std::size_t>(proc)];
  const std::uint64_t dirty = l1.flush();
  // Flushed dirty lines drain into the L2; we account the traffic without
  // modeling each address (they were already resident in L2 or will be
  // refetched on next use).
  traffic_.l2_accesses += dirty;
}

std::uint64_t MemoryHierarchy::flush_l2_sets(std::uint32_t first_set,
                                             std::uint32_t count) {
  const std::uint64_t dirty = l2_.flush_sets(first_set, count);
  // Each drained dirty line goes off-chip like any other L2 victim; the
  // flush is a state update (bank occupancy is not modeled for it, as
  // for other non-critical-path writebacks).
  traffic_.dram_accesses += dirty;
  traffic_.offchip_bytes += dirty * cfg_.l2.line_bytes;
  return dirty;
}

void MemoryHierarchy::reset_stats() {
  for (auto& l1 : l1s_) l1->reset_stats();
  l2_.reset_stats();
  bus_.reset_stats();
  dram_.reset_stats();
  traffic_ = TrafficStats{};
}

}  // namespace cms::mem
