// Partition planner: turns miss profiles + buffer inventory into a
// concrete L2 partition plan.
//
// Buffer policy follows the paper (sections 3 and 4.1):
//  * FIFOs get cache equal to their size, so after cold misses every
//    access hits ("The FIFOs access predictability is achieved by
//    allocating them cache of the same size as the FIFO size").
//  * Frame buffers get a fixed exclusive partition (their access is
//    sequential, so any exclusive partition keeps them predictable).
//  * Shared static data/bss segments get small exclusive partitions.
// The remaining capacity is distributed over the tasks by the MCKP
// optimizer on the measured miss curves.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kpn/network.hpp"
#include "mem/cache_config.hpp"
#include "mem/partition.hpp"
#include "mem/partitioned_cache.hpp"
#include "opt/mckp.hpp"
#include "opt/profile.hpp"

namespace cms::opt {

/// One client's allocation in the final plan.
struct PlanEntry {
  mem::ClientId client;
  std::string name;
  kpn::BufferKind kind = kpn::BufferKind::kSegment;  // buffers only
  bool is_task = false;
  std::uint32_t sets = 0;
  mem::Partition partition;
  double expected_misses = 0.0;  // tasks only (from the profile)
};

struct PartitionPlan {
  std::vector<PlanEntry> entries;
  std::uint32_t total_sets = 0;
  std::uint32_t used_sets = 0;
  mem::Partition spare;  // leftover range; default partition for strays
  double expected_task_misses = 0.0;
  bool feasible = false;

  const PlanEntry* find(const std::string& name) const;

  /// True iff both plans assign bitwise-identical partitions: same
  /// entries (client, name, sets, range, expected misses), totals and
  /// spare range. The planning service and its bench/tests use this to
  /// assert that concurrent, store-served and direct plans agree exactly.
  bool identical(const PartitionPlan& other) const;

  /// Install the partitions into the cache's partition table and set the
  /// spare range as default. Does not touch the interval table (buffer
  /// registration is the OS's job and is mode-independent).
  void apply(mem::PartitionedCache& cache) const;
};

struct PlannerConfig {
  std::uint32_t frame_buffer_sets = 16;
  std::uint32_t segment_sets = 4;
  /// curvature_eps sentinel: auto-tune the thinning tolerance from the
  /// measured noise instead of hand-picking it.
  static constexpr double kAutoCurvatureEps = -1.0;
  /// > 0: additionally drop near-collinear interior grid points
  /// (curvature-aware thinning, approximate within eps x cost range).
  /// 0 disables thinning. The default, kAutoCurvatureEps (any negative
  /// value), derives the tolerance from the profile's own jitter spread
  /// at plan time (see auto_curvature_eps) — a profile without repeated
  /// measurements resolves to 0, i.e. lossless pruning only.
  double curvature_eps = kAutoCurvatureEps;
  /// Cap a single FIFO's allocation (pathologically large FIFOs would
  /// otherwise starve the tasks).
  std::uint32_t max_fifo_sets = 256;
};

/// The curvature-thinning tolerance PlannerConfig::kAutoCurvatureEps
/// resolves to: the largest per-point relative jitter noise of the
/// profile — stddev of the repeated miss measurements over the task's
/// cost range — clamped to at most 0.05. A deviation from collinearity
/// below the measurement noise cannot be a statistically significant
/// knee, so thinning within that tolerance never drops one; a profile
/// with no repeated measurements (profile_runs == 1) yields 0 and
/// thinning stays lossless.
double auto_curvature_eps(const MissProfile& prof);

/// Sets needed so `bytes` of contiguous memory fully fit (all-hit policy).
std::uint32_t sets_for_bytes(std::uint64_t bytes, const mem::CacheConfig& l2,
                             bool round_pow2 = true);

/// Build the plan for `tasks` (name per task id) and `buffers` on an L2
/// with `l2.num_sets()` sets, using profile `prof`.
PartitionPlan plan_partitions(
    const MissProfile& prof,
    const std::vector<std::pair<TaskId, std::string>>& tasks,
    const std::vector<kpn::SharedBufferInfo>& buffers,
    const mem::CacheConfig& l2, const PlannerConfig& cfg);

/// A degenerate plan that gives every task the same `sets_per_task` and
/// buffers their usual policy partitions — used by the profiler sweeps
/// (every client isolated, so M_i depends only on its own allocation).
PartitionPlan uniform_plan(std::uint32_t sets_per_task,
                           const std::vector<std::pair<TaskId, std::string>>& tasks,
                           const std::vector<kpn::SharedBufferInfo>& buffers,
                           const mem::CacheConfig& l2, const PlannerConfig& cfg);

}  // namespace cms::opt
