// Fused multi-size replay kernel: the replay every profiling sweep runs.
//
// The reference sweep (replay_profile_reference in opt/trace.hpp) pays the
// dominant cost of a sweep — decoding every client's encoded trace
// and walking a cache model — once PER GRID SIZE: a 64-point grid decodes
// each stream 64 times. But the streams are size-invariant (that is the
// whole premise of capture/replay), so the kernel here decodes each
// stream ONCE, into each event's line id (the capture stores a stream's
// distinct lines once and its events by dense id, so no hash is needed),
// task slot and miss flags, and answers every grid point ("lane") from
// that decode.
//
// Most lanes never evict: a stream touches few distinct lines compared
// with the sets most grid points give it. So the decode also collects
// the stream's first-touch outcome — the misses (and per-task demand
// misses) it gets when nothing is ever evicted — and the lines that
// become resident. A lane where no set receives more than `ways` of
// those lines always finds an invalid way to fill, so it never picks a
// victim under any replacement policy and its counters are exactly the
// first-touch ones. Counting resident lines per set decides it. Only the
// other lanes replay event by event, one lane at a time, against a
// per-line residency table (where each line sits, or nowhere) instead of
// a search of the set's tags.
//
// Bit-identity contract: the fragments fold to a profile that is
// MissProfile::identical to replay_profile_reference's, because the lane
// replay reproduces mem::SetAssocCache outcome semantics exactly (the
// argument is at LaneState in replay_kernel.cpp) and only outcome state
// is modeled — per SetAssocCache::kOutcomeStateIsTagsStampsCounters,
// dirty bits and the cold-miss table cannot change a hit/miss.
// tests/test_replay_kernel.cpp pins this for the built-in scenarios, a
// differential fuzz over random captures under every cache policy, and
// several worker counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "mem/cache_config.hpp"
#include "opt/planner.hpp"
#include "opt/profile.hpp"
#include "opt/trace.hpp"

namespace cms::opt {

/// Read by nothing: benchmark/src/pipeline.cpp still names it, so it
/// stays until Benchmark v2 edits that file and deletes it.
enum class ReplayKernel : std::uint8_t { kAuto };

/// Decode-once multi-size replay of one capture. Usage:
///
///   MultiReplay mr(capture, points, l2, l2_seed);
///   for (std::size_t s = 0; s < mr.num_streams(); ++s)  // any order /
///     mr.replay_stream(s);                              // any threads
///   auto frags = mr.fragments(surcharge);   // after ALL streams done
///
/// replay_stream(s) is safe to call concurrently for DISTINCT s: streams
/// are independent (the per-size model gives each its own standalone
/// cache), and each stream writes only its own counter rows — this is
/// what lets core::Experiment fan a sweep out per (capture, stream)
/// instead of per (capture, size). fragments() folds nothing: it emits
/// one ProfileFragment per grid point, sample-for-sample identical to
/// replay_fragment's (tasks in capture order, then buffer streams in
/// stream order), tagged with the point's `order`.
class MultiReplay {
 public:
  /// Validates up front that every stream's client has an entry in every
  /// point's plan; throws std::invalid_argument (same message as
  /// replay_fragment) otherwise. A capture replays only at the line size
  /// it was recorded at (captures are recorded at the L2's, and
  /// Experiment::trace_digest hashes it), so a capture whose line size
  /// differs from `l2`'s throws std::invalid_argument too. Line ids,
  /// event ordinals and task slots are 32-bit in the replay state, so a
  /// stream of 2^32 - 1 events or more, or a capture of 2^30 tasks or
  /// more, throws std::length_error.
  MultiReplay(const CaptureRun& capture, std::vector<ReplayGridPoint> points,
              const mem::CacheConfig& l2, std::uint64_t l2_seed);

  std::size_t num_streams() const { return capture_->trace.streams.size(); }
  /// Lanes of the replay: one per (stream, grid point).
  std::size_t lanes() const { return num_streams() * points_.size(); }

  /// Count stream `s`'s misses at every grid point. One decode yields
  /// each event's line id and the stream's first-touch outcome (nothing
  /// ever evicted); lanes where no set receives more than `ways` of the
  /// stream's resident lines take it as is, and only the rest replay
  /// event by event over the decoded ids, one lane at a time. The decode
  /// and the lane state are local (freed on return); only the stream's
  /// counter rows persist. Throws std::runtime_error on a corrupt stream
  /// encoding (among them a line id beyond the stream's dictionary), and
  /// std::length_error for a replayed lane of 2^32 - 1
  /// slots (sets × ways) or more.
  void replay_stream(std::size_t s);

  /// Lanes replayed event by event so far, the rest having taken their
  /// first-touch counts. Read it after the replay_stream calls.
  std::size_t lanes_replayed() const;

  /// One fragment per grid point, bit-identical to replay_fragment's.
  /// Call only after every stream has been replayed.
  std::vector<ProfileFragment> fragments(Cycle surcharge) const;

 private:
  const CaptureRun* capture_;
  std::vector<ReplayGridPoint> points_;
  mem::CacheConfig l2_;
  std::uint64_t l2_seed_;
  /// Task-slot table: capture_->tasks creation order; slot slot_ids_.size()
  /// is the shared trash slot for ids outside the table.
  std::vector<TaskId> slot_ids_;
  /// client_sets_[s][p]: stream s's exclusive sets at point p (the plan
  /// lookup hoisted out of the hot pass).
  std::vector<std::vector<std::uint32_t>> client_sets_;
  /// misses_[s][p]: stream s's total misses at point p. The counter rows
  /// are 32-bit: no count exceeds its stream's events, fewer than 2^32 - 1.
  std::vector<std::vector<std::uint32_t>> misses_;
  /// demand_[s][slot * npoints + p]: demand misses attributed to task
  /// slot `slot` by stream s's events at point p. Kept PER STREAM so
  /// concurrent replay_stream calls never share a cache line of output;
  /// fragments() sums across streams (integer addition — order-free).
  std::vector<std::vector<std::uint32_t>> demand_;
  /// replayed_[s]: stream s's lanes that replay_stream replayed exactly;
  /// per stream for the same reason as the counter rows.
  std::vector<std::size_t> replayed_;
};

/// Serial driver over fused jobs: replay every stream of every job, fold
/// all fragments. Bit-identical to replay_profile_reference over the same
/// jobs (same orders, so the same fold sequence). The ReplayKernel
/// parameter is read by nothing: benchmark/src/pipeline.cpp still passes
/// it, so it stays until Benchmark v2 edits that file and deletes it.
MissProfile replay_profile_multi(const std::vector<MultiReplayJob>& jobs,
                                 const mem::CacheConfig& l2,
                                 std::uint64_t l2_seed, Cycle surcharge,
                                 ReplayKernel = ReplayKernel::kAuto);

}  // namespace cms::opt
