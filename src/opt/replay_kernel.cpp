#include "opt/replay_kernel.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <unordered_map>

#include "common/simd.hpp"
#include "opt/replay_kernel_impl.hpp"

namespace cms::opt {

namespace detail {

void run_stream_scalar(StreamCtx& ctx) {
  run_stream_generic(ctx, FindWayScalar{});
}

}  // namespace detail

bool have_sse4_kernel() { return detail::built_with_sse4(); }
bool have_avx2_kernel() { return detail::built_with_avx2(); }

ReplayKernel resolve_replay_kernel(ReplayKernel requested) {
  const bool avx2_ok =
      have_avx2_kernel() && common::simd_has(common::kSimdAvx2);
  // The SSE4 body uses _mm_cmpeq_epi64 (SSE4.1); requiring 4.2 as well
  // matches the -msse4.2 the TU is built with.
  const bool sse4_ok = have_sse4_kernel() &&
                       common::simd_has(common::kSimdSse41) &&
                       common::simd_has(common::kSimdSse42);
  switch (requested) {
    case ReplayKernel::kAuto:
      return avx2_ok ? ReplayKernel::kAvx2
                     : (sse4_ok ? ReplayKernel::kSse4 : ReplayKernel::kScalar);
    case ReplayKernel::kAvx2:
      return avx2_ok ? ReplayKernel::kAvx2 : ReplayKernel::kScalar;
    case ReplayKernel::kSse4:
      return sse4_ok ? ReplayKernel::kSse4 : ReplayKernel::kScalar;
    case ReplayKernel::kScalar:
    case ReplayKernel::kPerSize:
      return requested;
  }
  return ReplayKernel::kScalar;
}

namespace {

/// Plan entry of `client` in `plan`, or the replay_fragment error.
const PlanEntry& entry_for(const PartitionPlan& plan, mem::ClientId client) {
  for (const PlanEntry& e : plan.entries)
    if (e.client == client) return e;
  throw std::invalid_argument("trace stream for unplanned client " +
                              client.to_string());
}

/// Insert-only set of line indices: open addressing, linear probing,
/// Fibonacci hashing, at most half full. Keys are stored as line + 1
/// (0 = empty slot), the kernel's own tag encoding.
class LineSet {
 public:
  bool contains(std::uint64_t line) const {
    return slots_[probe(line + 1)] != 0;
  }
  /// True when `line` was not yet in the set.
  bool insert(std::uint64_t line) {
    const std::size_t i = probe(line + 1);
    if (slots_[i] != 0) return false;
    slots_[i] = line + 1;
    lines_.push_back(line);
    if (2 * lines_.size() > slots_.size()) grow();
    return true;
  }
  /// Members in insertion order.
  const std::vector<std::uint64_t>& lines() const { return lines_; }

 private:
  /// Slot holding `key`, else the empty slot it belongs in.
  std::size_t probe(std::uint64_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = (key * 0x9E3779B97F4A7C15ull) >> shift_;
    while (slots_[i] != 0 && slots_[i] != key) i = (i + 1) & mask;
    return i;
  }
  void grow() {
    slots_.assign(slots_.size() * 2, 0);
    --shift_;
    for (const std::uint64_t line : lines_) slots_[probe(line + 1)] = line + 1;
  }

  std::vector<std::uint64_t> slots_ = std::vector<std::uint64_t>(64, 0);
  unsigned shift_ = 64 - 6;  // log2(slots_.size()) high hash bits
  std::vector<std::uint64_t> lines_;
};

/// The stream's outcome when nothing is ever evicted: an access misses
/// until its line is first allocated and hits from then on. Under
/// write-allocate that is each line's first access; under
/// write-through-no-allocate, every access up to and including the
/// line's first read.
struct FirstTouch {
  std::uint64_t misses = 0;
  std::vector<std::uint64_t> demand;  // [slot], as StreamCtx::demand
  LineSet allocated;                  // lines that ever become resident
};

/// One decode of ctx's stream into its first-touch outcome. Stops early,
/// returning false, once more than `capacity` distinct lines have been
/// allocated: no lane holds that many, so every lane must evict.
bool first_touch(const detail::StreamCtx& ctx, std::size_t capacity,
                 FirstTouch& out) {
  out.demand.assign(ctx.slot_ids.size() + 1, 0);
  TaskId cur_task = kInvalidTask;
  std::size_t cur_slot = ctx.slot_ids.size();
  auto rd = ctx.stream->reader();
  TraceEvent ev;
  while (rd.next(ev)) {
    // Allocating only on a first touch, the lookup doubles as the
    // residency probe.
    const bool allocates =
        ev.type != AccessType::kWrite || ctx.write_allocate;
    if (allocates ? !out.allocated.insert(ev.line_index)
                  : out.allocated.contains(ev.line_index))
      continue;
    ++out.misses;
    if (ctx.count_issuers && !ev.l1_writeback) {
      if (ev.task != cur_task) {
        cur_task = ev.task;
        cur_slot = ctx.slot_of(cur_task);
      }
      ++out.demand[cur_slot];
    }
    if (out.allocated.lines().size() > capacity) return false;
  }
  return true;
}

/// Whether no set of lane `g` ever receives more than `ways` of `lines`.
/// Then every allocation finds an invalid way, no victim is ever chosen
/// under any replacement policy, and the lane's counters are exactly the
/// first-touch ones. Costs O(n log n) in the n lines, independent of the
/// lane's set count.
bool conflict_free(const detail::LaneGeom& g, std::uint32_t ways,
                   const std::vector<std::uint64_t>& lines,
                   std::vector<std::uint32_t>& scratch) {
  if (lines.size() <= ways) return true;
  if (lines.size() > std::uint64_t{g.client_sets.d} * ways) return false;
  scratch.clear();
  for (const std::uint64_t line : lines)
    scratch.push_back(detail::set_index(g, line));
  std::sort(scratch.begin(), scratch.end());
  // Sorted, a set holding more than `ways` lines shows as a run longer
  // than `ways`.
  for (std::size_t i = ways; i < scratch.size(); ++i)
    if (scratch[i] == scratch[i - ways]) return false;
  return true;
}

}  // namespace

MultiReplay::MultiReplay(const CaptureRun& capture,
                         std::vector<ReplayGridPoint> points,
                         const mem::CacheConfig& l2, std::uint64_t l2_seed,
                         ReplayKernel kernel)
    : capture_(&capture),
      points_(std::move(points)),
      l2_(l2),
      l2_seed_(l2_seed),
      kernel_(resolve_replay_kernel(kernel)) {
  if (kernel_ == ReplayKernel::kPerSize) kernel_ = ReplayKernel::kScalar;
  slot_ids_.reserve(capture_->tasks.size());
  for (const CaptureTaskStats& t : capture_->tasks) slot_ids_.push_back(t.id);

  const std::size_t nstreams = capture_->trace.streams.size();
  const std::size_t npoints = points_.size();
  client_sets_.resize(nstreams);
  misses_.resize(nstreams);
  demand_.resize(nstreams);
  for (std::size_t s = 0; s < nstreams; ++s) {
    const mem::ClientId client = capture_->trace.streams[s].client();
    client_sets_[s].reserve(npoints);
    // entry_for throws for a client missing from ANY point's plan — the
    // same std::invalid_argument the first offending per-size job would
    // have raised, just before any work instead of mid-sweep.
    for (const ReplayGridPoint& p : points_) {
      assert(p.plan != nullptr);
      client_sets_[s].push_back(
          std::max(entry_for(*p.plan, client).partition.num_sets, 1u));
    }
    misses_[s].assign(npoints, 0);
    demand_[s].assign((slot_ids_.size() + 1) * npoints, 0);
  }
  replayed_.assign(nstreams, 0);
}

void MultiReplay::replay_stream(std::size_t s) {
  assert(s < num_streams());
  const ClientTrace& stream = capture_->trace.streams[s];
  const std::size_t npoints = points_.size();
  const std::size_t nslots = slot_ids_.size() + 1;

  detail::StreamCtx ctx;
  ctx.stream = &stream;
  ctx.count_issuers = !capture_->is_scheduler_client(stream.client());
  ctx.ways = l2_.ways;
  ctx.replacement = l2_.replacement;
  ctx.write_allocate = l2_.write_policy != mem::WritePolicy::kWriteThroughNoAllocate;
  ctx.l2_seed = l2_seed_;
  ctx.client_key = stream.client().key();
  ctx.trace_line_bytes = capture_->trace.line_bytes;
  ctx.l2_line_bytes = l2_.line_bytes;
  ctx.slot_ids = slot_ids_;

  std::vector<detail::LaneGeom> geoms(npoints);
  std::size_t capacity = 0;  // lines the largest lane holds
  for (std::size_t p = 0; p < npoints; ++p) {
    geoms[p].total =
        detail::FastMod::make(std::max(points_[p].plan->total_sets, 1u));
    geoms[p].client_sets = detail::FastMod::make(client_sets_[s][p]);
    capacity = std::max<std::size_t>(
        capacity, static_cast<std::size_t>(client_sets_[s][p]) * l2_.ways);
  }

  // Lanes where no set ever receives more than `ways` resident lines
  // never evict, so they take the first-touch counts without a replay. A
  // capture at another line size than the L2's tags by the rescaled line
  // but indexes by the captured one, so its first touches depend on the
  // lane: every lane replays.
  FirstTouch ft;
  const bool classify = ctx.trace_line_bytes == ctx.l2_line_bytes &&
                        first_touch(ctx, capacity, ft);
  std::vector<std::size_t> exact;  // grid points that replay
  std::vector<std::uint32_t> scratch;
  for (std::size_t p = 0; p < npoints; ++p) {
    if (!classify ||
        !conflict_free(geoms[p], l2_.ways, ft.allocated.lines(), scratch)) {
      exact.push_back(p);
      continue;
    }
    misses_[s][p] = ft.misses;
    for (std::size_t slot = 0; slot < nslots; ++slot)
      demand_[s][slot * npoints + p] = ft.demand[slot];
  }
  replayed_[s] = exact.size();
  if (exact.empty()) return;

  // Replay the rest, compacted into lanes 0..n-1 of one pass.
  const std::size_t nexact = exact.size();
  std::size_t slots = 0;
  for (const std::size_t p : exact) {
    detail::LaneGeom g = geoms[p];
    g.base = slots;
    slots += static_cast<std::size_t>(client_sets_[s][p]) * l2_.ways;
    ctx.lanes.push_back(g);
  }
  ctx.state_slots = slots;

  std::vector<std::uint64_t> tags(slots, 0);
  std::vector<std::uint64_t> stamps(slots, 0);
  std::vector<std::uint64_t> rand_seq(nexact, 0);
  std::vector<std::uint64_t> misses(nexact, 0);
  std::vector<std::uint64_t> demand(nslots * nexact, 0);
  ctx.tags = tags.data();
  ctx.stamps = stamps.data();
  ctx.rand_seq = rand_seq.data();
  ctx.misses = misses.data();
  ctx.demand = demand.data();

  switch (kernel_) {
    case ReplayKernel::kAvx2: detail::run_stream_avx2(ctx); break;
    case ReplayKernel::kSse4: detail::run_stream_sse4(ctx); break;
    default: detail::run_stream_scalar(ctx); break;
  }

  for (std::size_t l = 0; l < nexact; ++l) {
    misses_[s][exact[l]] = misses[l];
    for (std::size_t slot = 0; slot < nslots; ++slot)
      demand_[s][slot * npoints + exact[l]] = demand[slot * nexact + l];
  }
}

std::size_t MultiReplay::lanes_replayed() const {
  std::size_t n = 0;
  for (const std::size_t r : replayed_) n += r;
  return n;
}

std::vector<ProfileFragment> MultiReplay::fragments(Cycle surcharge) const {
  const std::size_t npoints = points_.size();
  const std::size_t nstreams = capture_->trace.streams.size();

  // Stream index of each task's own client, for the per-task miss rows.
  std::unordered_map<mem::ClientId, std::size_t, mem::ClientIdHash> stream_of;
  stream_of.reserve(nstreams);
  for (std::size_t s = 0; s < nstreams; ++s)
    stream_of.emplace(capture_->trace.streams[s].client(), s);

  std::vector<ProfileFragment> out;
  out.reserve(npoints);
  for (std::size_t p = 0; p < npoints; ++p) {
    const ReplayGridPoint& point = points_[p];
    ProfileFragment frag;
    frag.order = point.order;
    // Sample order replicates replay_fragment exactly: tasks in capture
    // (creation) order first, then buffer streams in stream order.
    for (std::size_t slot = 0; slot < capture_->tasks.size(); ++slot) {
      const CaptureTaskStats& t = capture_->tasks[slot];
      const auto it = stream_of.find(mem::ClientId::task(t.id));
      const std::uint64_t m =
          it != stream_of.end() ? misses_[it->second][p] : 0;
      std::uint64_t dm = 0;
      for (std::size_t s = 0; s < nstreams; ++s)
        dm += demand_[s][slot * npoints + p];
      frag.add(t.name, point.sets, static_cast<double>(m),
               static_cast<double>(reconstruct_active_cycles(
                   t.compute_cycles, t.mem_cycles, dm, surcharge)),
               static_cast<double>(t.instructions));
    }
    for (std::size_t s = 0; s < nstreams; ++s) {
      const ClientTrace& stream = capture_->trace.streams[s];
      if (!stream.client().is_buffer()) continue;
      frag.add(entry_for(*point.plan, stream.client()).name, point.sets,
               static_cast<double>(misses_[s][p]), 0.0, 0.0);
    }
    out.push_back(std::move(frag));
  }
  return out;
}

MissProfile replay_profile_multi(const std::vector<MultiReplayJob>& jobs,
                                 const mem::CacheConfig& l2,
                                 std::uint64_t l2_seed, Cycle surcharge,
                                 ReplayKernel kernel) {
  std::vector<ProfileFragment> fragments;
  for (const MultiReplayJob& job : jobs) {
    assert(job.capture != nullptr);
    MultiReplay mr(*job.capture, job.points, l2, l2_seed, kernel);
    for (std::size_t s = 0; s < mr.num_streams(); ++s) mr.replay_stream(s);
    for (ProfileFragment& f : mr.fragments(surcharge))
      fragments.push_back(std::move(f));
  }
  return fold_fragments(std::move(fragments));
}

}  // namespace cms::opt
