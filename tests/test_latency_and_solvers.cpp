// Exact latency arithmetic of the hierarchy and partition-table
// translation (the MCKP solvers are cross-checked in test_mckp).
#include <gtest/gtest.h>

#include "core/experiment.hpp"
#include "mem/hierarchy.hpp"
#include "opt/planner.hpp"

namespace cms {
namespace {

TEST(LatencyMath, ColdMissEndToEnd) {
  mem::HierarchyConfig cfg;
  cfg.num_procs = 1;
  cfg.l1_hit_latency = 1;
  cfg.l2_hit_latency = 8;
  cfg.bus.arbitration_latency = 1;
  cfg.bus.cycles_per_transaction = 2;
  cfg.dram.access_latency = 60;
  cfg.dram.bank_occupancy = 12;
  mem::MemoryHierarchy h(cfg);
  // Cold read at t=100, no contention anywhere:
  //   L1 lookup (+1) -> bus grant at 101+1=102? grant = max(now+arb, free)
  //   -> L2 hit latency 8 -> DRAM 60 -> return transfer 2.
  const auto out = h.access(0, 0, 0x1000, 4, AccessType::kRead, 100);
  const Cycle grant = 100 + cfg.l1_hit_latency + cfg.bus.arbitration_latency;
  const Cycle expect =
      grant + cfg.l2_hit_latency + cfg.dram.access_latency +
      cfg.bus.cycles_per_transaction;
  EXPECT_EQ(out.finish, expect);
}

TEST(LatencyMath, L2HitEndToEnd) {
  mem::HierarchyConfig cfg;
  cfg.num_procs = 2;
  mem::MemoryHierarchy h(cfg);
  h.access(1, 0, 0x2000, 4, AccessType::kRead, 0);  // proc 1 warms the L2
  const auto out = h.access(0, 0, 0x2000, 4, AccessType::kRead, 1000);
  const Cycle grant = 1000 + cfg.l1_hit_latency + cfg.bus.arbitration_latency;
  EXPECT_EQ(out.finish, grant + cfg.l2_hit_latency);
  EXPECT_EQ(out.worst, mem::ServedBy::kL2);
}

TEST(LatencyMath, SameBankBackToBackSerializes) {
  mem::HierarchyConfig cfg;
  cfg.num_procs = 2;
  mem::MemoryHierarchy h(cfg);
  // Two cold misses to the same DRAM bank issued at the same time from
  // different processors: the second finishes strictly later than the
  // first by at least the bank occupancy.
  const Addr a = 0x0;
  const Addr b = a + cfg.dram.interleave_bytes * cfg.dram.num_banks;  // same bank
  const auto r1 = h.access(0, 0, a, 4, AccessType::kRead, 0);
  const auto r2 = h.access(1, 1, b, 4, AccessType::kRead, 0);
  EXPECT_GE(r2.finish, r1.finish + cfg.dram.bank_occupancy);
}

// Translation fuzz: for random partition tables, translated indices always
// land inside the owning partition and are surjective onto it.
TEST(PlannerSolvers, TranslationCoversPartitionExactly) {
  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    mem::PartitionTable table(1024);
    const auto base = static_cast<std::uint32_t>(rng.below(512));
    const std::uint32_t size = 1u << rng.below(7);  // 1..64
    ASSERT_TRUE(table.assign(mem::ClientId::task(0), {base, size}));
    std::vector<bool> hit(size, false);
    for (std::uint32_t idx = 0; idx < 2048; ++idx) {
      const std::uint32_t t = table.translate(mem::ClientId::task(0), idx);
      ASSERT_GE(t, base);
      ASSERT_LT(t, base + size);
      hit[t - base] = true;
    }
    for (std::uint32_t s = 0; s < size; ++s)
      EXPECT_TRUE(hit[s]) << "set " << s << " unused";
  }
}

}  // namespace
}  // namespace cms
