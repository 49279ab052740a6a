// INTERNAL header of the fused multi-size replay kernel — shared between
// the scalar TU (replay_kernel.cpp) and the per-ISA TUs
// (replay_kernel_sse4.cpp / replay_kernel_avx2.cpp, compiled with
// -msse4.2 / -mavx2 respectively; see CMakeLists.txt). Each ISA TU
// instantiates run_stream_generic with its own find_way so the whole hot
// loop inlines under that ISA's code generation. Nothing here is part of
// the public API; include opt/replay_kernel.hpp instead.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "mem/cache.hpp"
#include "mem/cache_config.hpp"
#include "opt/trace.hpp"

namespace cms::opt::detail {

/// Exact x % d for x, d < 2^32 via one wraparound multiply + one
/// high-multiply (Lemire's fastmod) — the per-event (line % total) %
/// client_sets chain costs 2 of these PER LANE, and a hardware divide
/// there would dominate the whole kernel. d == 1 works out naturally:
/// magic wraps to 0 and the result is 0.
struct FastMod {
  std::uint64_t magic = 0;  // UINT64_MAX / d + 1 (mod 2^64)
  std::uint32_t d = 1;

  static FastMod make(std::uint32_t d) {
    return FastMod{~std::uint64_t{0} / d + 1, d};
  }
  std::uint32_t mod(std::uint32_t x) const {
    const std::uint64_t low = magic * x;
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(low) * d) >> 64);
  }
};

/// One grid size's lane block: its index-translation geometry and where
/// its SoA tag/stamp state lives inside the stream's arrays.
struct LaneGeom {
  FastMod total;        // virtual total sets of this point's uniform plan
  FastMod client_sets;  // this stream's exclusive sets at this point
  std::size_t base = 0;  // offset of this lane's block in tags/stamps
};

/// Set of `line_index` in lane `g`: the live (line % total) % client_sets
/// chain. The chain works on 32-bit values (FastMod); line indices above
/// 2^32 would need the slow path, but a capture's line index is bounded
/// by the simulated address space (far below 2^32) — the guard checks the
/// claim rather than assuming it.
inline std::uint32_t set_index(const LaneGeom& g, std::uint64_t line_index) {
  if (line_index <= 0xFFFFFFFFull)
    return g.client_sets.mod(
        g.total.mod(static_cast<std::uint32_t>(line_index)));
  return static_cast<std::uint32_t>((line_index % g.total.d) %
                                    g.client_sets.d);
}

/// Everything one stream pass needs, SoA. The tag encoding: a way holds
/// `line_of(addr)/line_bytes + 1`, 0 = invalid — so the vectorized "which
/// way matches" and "first invalid way" probes are the SAME compare with
/// needle = tag resp. 0. Dirty bits and owners are not modeled: per
/// mem::SetAssocCache::kOutcomeStateIsTagsStampsCounters they cannot
/// influence a hit/miss outcome, and outcomes are all replay consumes.
struct StreamCtx {
  const ClientTrace* stream = nullptr;
  bool count_issuers = true;  // false for scheduler clients
  std::uint32_t ways = 0;
  mem::Replacement replacement = mem::Replacement::kLru;
  bool write_allocate = true;  // false = kWriteThroughNoAllocate
  std::uint64_t l2_seed = 0;
  std::uint64_t client_key = 0;
  /// line_bytes rescale of a foreign-granularity capture (tags must match
  /// SetAssocCache::line_of exactly); both are equal in practice.
  std::uint32_t trace_line_bytes = 64;
  std::uint32_t l2_line_bytes = 64;

  std::vector<LaneGeom> lanes;  // one per grid point
  std::size_t state_slots = 0;  // total tag/stamp slots over all lanes

  /// Dense task-slot table: position in CaptureRun::tasks, resolved on
  /// task-change events only; ids not in the table use the trailing
  /// trash slot (their demand misses are never read back).
  std::vector<TaskId> slot_ids;

  /// Task slot of `task`: its position in slot_ids, else the trash slot.
  std::size_t slot_of(TaskId task) const {
    for (std::size_t s = 0; s < slot_ids.size(); ++s)
      if (slot_ids[s] == task) return s;
    return slot_ids.size();
  }

  // State + output arrays, owned by the driver (replay_stream allocates
  // tags/stamps per stream and frees them after the pass; counters
  // persist for fragment assembly).
  std::uint64_t* tags = nullptr;    // [state_slots], 0 = invalid
  std::uint64_t* stamps = nullptr;  // [state_slots]
  std::uint64_t* rand_seq = nullptr;  // [lanes] kRandom counters
  std::uint64_t* misses = nullptr;    // [lanes]
  std::uint64_t* demand = nullptr;    // [(slot_ids.size()+1) * lanes]
};

/// The fused hot loop: decode the stream ONCE, push every event through
/// every lane. `find_way(tags, ways, needle)` returns the first way whose
/// tag equals `needle` or -1 — the only ISA-specific operation.
///
/// Bit-identity invariants mirrored from mem::SetAssocCache::access_at
/// (any deviation breaks the MissProfile::identical safety net):
///  * the access tick pre-increments per event and is SHARED by all
///    lanes — a standalone per-size cache sees exactly this stream, so
///    its tick sequence is the event ordinal;
///  * hits refresh the stamp under LRU only;
///  * a write miss under kWriteThroughNoAllocate counts but does not
///    allocate (and does not consume a kRandom draw);
///  * victim choice prefers the FIRST invalid way, then LRU/FIFO argmin
///    with strict < (stamps are unique, ties impossible), then the
///    counter-based kRandom stream (mem::SetAssocCache::random_victim_way
///    — the counter advances per replacement, per lane).
template <typename FindWay>
void run_stream_generic(StreamCtx& ctx, FindWay find_way) {
  const std::uint32_t ways = ctx.ways;
  const std::size_t nlanes = ctx.lanes.size();
  const std::size_t trash_slot = ctx.slot_ids.size();
  const bool lru = ctx.replacement == mem::Replacement::kLru;
  const bool random = ctx.replacement == mem::Replacement::kRandom;
  const bool rescale = ctx.trace_line_bytes != ctx.l2_line_bytes;

  std::uint64_t tick = 0;
  TaskId cur_task = kInvalidTask;
  std::size_t cur_slot = trash_slot;

  auto rd = ctx.stream->reader();
  TraceEvent ev;
  while (rd.next(ev)) {
    ++tick;
    // Tag = canonical line index + 1 (0 stays the invalid sentinel). A
    // capture at a foreign line granularity is collapsed through the same
    // arithmetic as SetAssocCache::line_of.
    const std::uint64_t tag =
        (rescale ? ev.line_index * ctx.trace_line_bytes / ctx.l2_line_bytes
                 : ev.line_index) +
        1;
    const bool no_alloc =
        ev.type == AccessType::kWrite && !ctx.write_allocate;
    const bool count_demand = ctx.count_issuers && !ev.l1_writeback;
    if (ev.task != cur_task) {
      cur_task = ev.task;
      cur_slot = ctx.slot_of(cur_task);
    }

    for (std::size_t l = 0; l < nlanes; ++l) {
      const LaneGeom& g = ctx.lanes[l];
      const std::uint32_t idx = set_index(g, ev.line_index);
      std::uint64_t* tags = ctx.tags + g.base +
                            static_cast<std::size_t>(idx) * ways;
      std::uint64_t* stamps = ctx.stamps + g.base +
                              static_cast<std::size_t>(idx) * ways;
      const int hit_way = find_way(tags, ways, tag);
      if (hit_way >= 0) {
        if (lru) stamps[hit_way] = tick;
        continue;
      }
      ++ctx.misses[l];
      if (count_demand) ++ctx.demand[cur_slot * nlanes + l];
      if (no_alloc) continue;  // write-through no-allocate: nothing cached
      int victim = find_way(tags, ways, 0);  // first invalid way
      if (victim < 0) {
        if (random) {
          victim = static_cast<int>(mem::SetAssocCache::random_victim_way(
              ctx.l2_seed, ctx.client_key, ctx.rand_seq[l]++, ways));
        } else {  // kLru / kFifo: first way with the minimal stamp
          victim = 0;
          for (std::uint32_t w = 1; w < ways; ++w)
            if (stamps[w] < stamps[victim]) victim = static_cast<int>(w);
        }
      }
      tags[victim] = tag;
      stamps[victim] = tick;
    }
  }
}

/// Scalar find_way — the reference the ISA variants must agree with.
struct FindWayScalar {
  int operator()(const std::uint64_t* tags, std::uint32_t ways,
                 std::uint64_t needle) const {
    for (std::uint32_t w = 0; w < ways; ++w)
      if (tags[w] == needle) return static_cast<int>(w);
    return -1;
  }
};

// Per-ISA stream passes. Each is defined in its own TU so the compiler
// may generate that ISA's instructions for the WHOLE loop; on builds
// without the matching -m flag the TU degrades to the scalar loop (the
// dispatcher never selects a variant the build or CPU lacks, these
// definitions just keep the link whole).
void run_stream_scalar(StreamCtx& ctx);
void run_stream_sse4(StreamCtx& ctx);
void run_stream_avx2(StreamCtx& ctx);

/// Whether the binary carries a real SIMD loop for the variant (false
/// when the TU was compiled without the ISA, e.g. non-x86 targets).
bool built_with_sse4();
bool built_with_avx2();

}  // namespace cms::opt::detail
