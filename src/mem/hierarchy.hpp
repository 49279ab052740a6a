// Full memory hierarchy of one CAKE tile: per-processor private L1 caches,
// a shared bus, the shared partitioned unified L2, and banked off-chip
// memory (Figure 1 of the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "mem/bus.hpp"
#include "mem/cache.hpp"
#include "mem/cache_config.hpp"
#include "mem/dram.hpp"
#include "mem/partitioned_cache.hpp"
#include "mem/trace_sink.hpp"

namespace cms::mem {

struct HierarchyConfig {
  std::uint32_t num_procs = 4;
  CacheConfig l1 = cake_l1_config();
  CacheConfig l2 = cake_l2_config();
  BusConfig bus;
  DramConfig dram;
  Cycle l1_hit_latency = 1;
  Cycle l2_hit_latency = 8;
  std::uint64_t seed = 42;

  /// RNG seed of the shared L2 cache instance. Trace replay constructs its
  /// standalone per-client caches with the SAME seed so that counter-based
  /// kRandom replacement reproduces the live victim sequence bit-exactly.
  std::uint64_t l2_seed() const { return seed ^ 0xC0FFEE; }

  /// Outcome-invariant L2 timing: every L2-bound access is charged the
  /// L2 hit latency regardless of hit/miss and the DRAM timing model is
  /// bypassed (traffic is still counted). Hit/miss outcomes then have NO
  /// timing feedback, so the simulated schedule — and with it every
  /// client's L1-filtered L2 access stream — is identical for every L2
  /// partition layout. The isolation-profiling sweep runs in this mode:
  /// it is what makes one captured trace exactly replayable at every
  /// grid size (opt/trace.hpp); off-chip latency is reconstructed
  /// analytically from the miss counts afterwards.
  bool uniform_l2_timing = false;
};

/// Which level served an access (innermost level that hit).
enum class ServedBy : std::uint8_t { kL1, kL2, kMemory };

struct AccessOutcome {
  Cycle finish = 0;        // completion time of the (possibly multi-line) access
  ServedBy worst = ServedBy::kL1;  // slowest level touched across the lines
  std::uint32_t l2_misses = 0;     // L2 misses incurred by this access
};

/// Traffic counters for the power model (paper section 3.1: consumed power
/// depends on time and memory traffic).
struct TrafficStats {
  std::uint64_t l1_accesses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t dram_accesses = 0;
  std::uint64_t offchip_bytes = 0;
};

class MemoryHierarchy {
 public:
  explicit MemoryHierarchy(const HierarchyConfig& cfg);

  const HierarchyConfig& config() const { return cfg_; }

  /// Perform an access of `size` bytes issued by `task` on processor
  /// `proc` starting at time `now`. Accesses spanning several cache lines
  /// are split; the completion time of the last line is returned.
  AccessOutcome access(ProcId proc, TaskId task, Addr addr, std::uint32_t size,
                       AccessType type, Cycle now);

  /// The L1-hit case of access(), decided by one lookup: if the access
  /// lies within one line and that line is resident in `proc`'s L1,
  /// perform it exactly as access() would (it finishes
  /// `l1_hit_latency` cycles after it starts) and return true. Otherwise
  /// return false and change nothing.
  bool access_l1_hit(ProcId proc, Addr addr, std::uint32_t size,
                     AccessType type);

  /// Called by the OS on a context switch: the private L1 of `proc` is
  /// flushed (the paper treats first-level caches as private to each task;
  /// we realize that by invalidation on switch).
  void on_task_switch(ProcId proc);

  /// Flush an L2 set range that is changing hands (dynamic
  /// repartitioning) and account the drained dirty lines as off-chip
  /// traffic — unlike PartitionedCache::flush_sets, which only touches
  /// cache state/stats. Returns the dirty count.
  std::uint64_t flush_l2_sets(std::uint32_t first_set, std::uint32_t count);

  PartitionedCache& l2() { return l2_; }
  const PartitionedCache& l2() const { return l2_; }
  SetAssocCache& l1(ProcId proc) { return *l1s_[static_cast<std::size_t>(proc)]; }
  const SetAssocCache& l1(ProcId proc) const {
    return *l1s_[static_cast<std::size_t>(proc)];
  }
  Bus& bus() { return bus_; }
  Dram& dram() { return dram_; }

  const TrafficStats& traffic() const { return traffic_; }
  void reset_stats();

  /// Install an observer of the L2-bound access stream (nullptr detaches).
  /// The sink is notified synchronously, in issue order, once per line
  /// access presented to the L2 — demand fetches and L1 victim writebacks
  /// alike. Not owned; must outlive the hierarchy or be detached first.
  void set_trace_sink(AccessTraceSink* sink) { sink_ = sink; }
  AccessTraceSink* trace_sink() const { return sink_; }

 private:
  Cycle access_line(ProcId proc, TaskId task, Addr line_addr, AccessType type,
                    Cycle now, AccessOutcome& outcome);

  HierarchyConfig cfg_;
  std::vector<std::unique_ptr<SetAssocCache>> l1s_;
  Bus bus_;
  PartitionedCache l2_;
  Dram dram_;
  TrafficStats traffic_;
  AccessTraceSink* sink_ = nullptr;
};

}  // namespace cms::mem
