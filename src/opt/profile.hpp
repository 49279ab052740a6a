// Per-task miss profiles M_i(z_k) (paper section 3.2).
//
// "The number of misses of task i with z_k cache sets can be obtained by
// simulation or program analysis. In our model we use an average over the
// M_ik obtained out of different simulations of task i having z_k cache."
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace cms::opt {

/// Measurements of one task at one cache size.
struct ProfilePoint {
  RunningStats misses;         // L2 misses across runs
  RunningStats active_cycles;  // task execution time t_i(z_k)
  RunningStats instructions;
};

/// One raw profiling observation (task or buffer at one grid point).
struct ProfileSample {
  std::string task;
  std::uint32_t sets = 0;
  double misses = 0.0;
  double active_cycles = 0.0;
  double instructions = 0.0;
};

/// The samples produced by ONE profiling job, tagged with the job's
/// position in the canonical serial schedule. Parallel campaign workers
/// each fill a fragment; `fold_fragments` reassembles them into the exact
/// sample stream the serial profiler would have produced.
struct ProfileFragment {
  std::uint64_t order = 0;  // position in the canonical (serial) schedule
  std::vector<ProfileSample> samples;

  void add(std::string task, std::uint32_t sets, double misses,
           double active_cycles, double instructions) {
    samples.push_back(ProfileSample{std::move(task), sets, misses,
                                    active_cycles, instructions});
  }
};

class MissProfile {
 public:
  void add_sample(const std::string& task, std::uint32_t sets, double misses,
                  double active_cycles, double instructions);

  /// Replay every sample of `frag` in its recorded order.
  void add_fragment(const ProfileFragment& frag);

  /// Install a fully-formed point (overwriting any existing one), copying
  /// its folded statistics bit-exactly where add_sample's Welford
  /// accumulation could not: the sweep-coalescing slice of a union-grid
  /// profile (svc/planning_service.cpp) and ablation_phased's union of
  /// per-phase curves.
  void set_point(const std::string& task, std::uint32_t sets,
                 ProfilePoint point);

  /// True iff both profiles hold bitwise-identical statistics for every
  /// (task, size) point.
  bool identical(const MissProfile& other) const;

  bool has(const std::string& task) const { return tasks_.contains(task); }
  const std::map<std::uint32_t, ProfilePoint>& curve(
      const std::string& task) const;

  /// Average miss count of `task` at `sets` (must be a measured size).
  double misses(const std::string& task, std::uint32_t sets) const;
  double active_cycles(const std::string& task, std::uint32_t sets) const;

  std::vector<std::string> task_names() const;
  std::vector<std::uint32_t> sizes(const std::string& task) const;

  /// Render as "task, size->misses" rows (debugging, the micro_replay
  /// profile dump).
  std::string to_string() const;

 private:
  std::map<std::string, std::map<std::uint32_t, ProfilePoint>> tasks_;
};

/// Fold per-job fragments — arriving in ANY completion order — into one
/// profile that is bit-identical to the serial profiler's output: the
/// fragments are ordered by their canonical schedule position and their
/// samples replayed, so every (task, size) point sees the exact same
/// floating-point accumulation sequence as a serial sweep.
MissProfile fold_fragments(std::vector<ProfileFragment> fragments);

}  // namespace cms::opt
