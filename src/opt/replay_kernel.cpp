#include "opt/replay_kernel.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>

#include "mem/cache.hpp"

namespace cms::opt {

namespace {

/// Plan entry of `client` in `plan`, or the replay_fragment error.
const PlanEntry& entry_for(const PartitionPlan& plan, mem::ClientId client) {
  for (const PlanEntry& e : plan.entries)
    if (e.client == client) return e;
  throw std::invalid_argument("trace stream for unplanned client " +
                              client.to_string());
}

/// Exact x % d for x, d < 2^32 via one wraparound multiply + one
/// high-multiply (Lemire's fastmod): a hardware divide per line would
/// dominate the per-lane set computation. d == 1 works out naturally:
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

/// One grid point's index translation for one stream.
struct LaneGeom {
  FastMod total;        // virtual total sets of this point's uniform plan
  FastMod client_sets;  // this stream's exclusive sets at this point
};

/// Set of `line_index` in lane `g`: the live (line % total) % client_sets
/// chain of replay_fragment. A capture's line index is bounded by the
/// simulated address space, far below 2^32; the guard checks the claim
/// rather than assuming it.
std::uint32_t set_index(const LaneGeom& g, std::uint64_t line_index) {
  if (line_index <= 0xFFFFFFFFull)
    return g.client_sets.mod(
        g.total.mod(static_cast<std::uint32_t>(line_index)));
  return static_cast<std::uint32_t>((line_index % g.total.d) %
                                    g.client_sets.d);
}

/// Per-event flags below the task slot in DecodedStream::info.
constexpr std::uint32_t kDemand = 1;   // a miss is the task's demand miss
constexpr std::uint32_t kNoAlloc = 2;  // a miss allocates nothing
constexpr unsigned kSlotShift = 2;

/// "Not resident" in LaneState::where. Event ordinals, line ids and slots
/// all stay below it (MultiReplay checks the stream and lane sizes).
constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

/// One decode of a stream: every event as a dense line id plus what a
/// miss of it counts, and the stream's first-touch outcome, its outcome
/// when nothing is ever evicted. An access misses until its line is first
/// allocated and hits from then on: under write-allocate that is each
/// line's first access, under write-through-no-allocate every access up
/// to and including the line's first read.
struct DecodedStream {
  std::vector<std::uint32_t> line;  // [event] line id
  std::vector<std::uint32_t> info;  // [event] slot << kSlotShift | flags
  std::uint64_t misses = 0;
  std::vector<std::uint64_t> demand;   // [slot] demand misses
  std::vector<std::uint32_t> resident;  // ids that ever become resident
};

/// Task slot of `task`: its position in `slot_ids`, else the trailing
/// trash slot (whose demand misses are never read back).
std::uint32_t slot_of(const std::vector<TaskId>& slot_ids, TaskId task) {
  for (std::size_t s = 0; s < slot_ids.size(); ++s)
    if (slot_ids[s] == task) return static_cast<std::uint32_t>(s);
  return static_cast<std::uint32_t>(slot_ids.size());
}

DecodedStream decode(const ClientTrace& stream,
                     const std::vector<TaskId>& slot_ids, bool count_issuers,
                     bool write_allocate) {
  DecodedStream d;
  // Every event encodes to at least one byte, and a stream that claims
  // more events than it has bytes throws before it writes past them.
  const std::size_t events = static_cast<std::size_t>(
      std::min<std::uint64_t>(stream.events(), stream.encoded_bytes()));
  d.line.resize(events);
  d.info.resize(events);
  d.demand.assign(slot_ids.size() + 1, 0);
  // Indexed by id, not grown with it: nothing requires ids to first
  // appear in order.
  std::vector<std::uint8_t> allocated(stream.lines().size(), 0);  // [id]
  // The issuer changes every few events in a shared buffer's stream, so
  // a direct-mapped cache of task slots saves most scans.
  std::array<std::pair<TaskId, std::uint32_t>, 64> slot_cache;
  slot_cache.fill({kInvalidTask, slot_of(slot_ids, kInvalidTask)});
  TaskId cur_task = kInvalidTask;
  std::uint32_t cur_slot = slot_cache[0].second;
  auto rd = stream.reader();
  TraceEvent ev;
  for (std::size_t e = 0; rd.next(ev); ++e) {
    const std::uint32_t id = ev.line_id;
    if (ev.task != cur_task) {
      cur_task = ev.task;
      auto& cached = slot_cache[static_cast<std::uint32_t>(cur_task) % 64];
      if (cached.first != cur_task)
        cached = {cur_task, slot_of(slot_ids, cur_task)};
      cur_slot = cached.second;
    }
    const bool demand = count_issuers && !ev.l1_writeback;
    const bool no_alloc = ev.type == AccessType::kWrite && !write_allocate;
    d.line[e] = id;
    d.info[e] = cur_slot << kSlotShift | (demand ? kDemand : 0) |
                (no_alloc ? kNoAlloc : 0);
    if (allocated[id] != 0) continue;
    ++d.misses;
    if (demand) ++d.demand[cur_slot];
    if (!no_alloc) {
      allocated[id] = 1;
      d.resident.push_back(id);
    }
  }
  return d;
}

/// Whether no set of lane `g` ever receives more than `ways` of the
/// resident lines (`lines` maps their ids to line indices). Then every
/// allocation finds an invalid way, no victim is ever chosen under any
/// replacement policy, and the lane's counters are exactly the
/// first-touch ones. `count` holds one zeroed counter per
/// set (at least the lane's set count) and is left zeroed: only the
/// counters this lane touched are cleared, so the cost is independent of
/// the lane's set count.
bool conflict_free(const LaneGeom& g, std::uint32_t ways,
                   const DecodedStream& d,
                   const std::vector<std::uint64_t>& lines,
                   std::vector<std::uint32_t>& count,
                   std::vector<std::uint32_t>& touched) {
  if (d.resident.size() <= ways) return true;
  if (d.resident.size() > std::uint64_t{g.client_sets.d} * ways) return false;
  bool free = true;
  touched.clear();
  for (const std::uint32_t id : d.resident) {
    const std::uint32_t set = set_index(g, lines[id]);
    if (count[set] == 0) touched.push_back(set);
    if (++count[set] > ways) {
      free = false;
      break;
    }
  }
  for (const std::uint32_t set : touched) count[set] = 0;
  return free;
}

/// The replacement state of one lane, against a per-line residency table
/// instead of per-way tags: where[id] is the slot (set * ways + way)
/// holding line id `id`, or kNone; owner[slot] the line id a slot holds;
/// stamps the LRU/FIFO ticks; fill[set] the set's valid ways. It gives
/// the outcomes of mem::SetAssocCache::access_at exactly, because
///  * replay never invalidates, so a set's first invalid way is its fill
///    count;
///  * the capture is at the L2's line size, so a line's tag is the line
///    itself and it lives in exactly one set of the lane: an access hits
///    exactly when its line has a slot;
///  * an eviction clears the evicted line's slot;
///  * LRU and FIFO victims are the first way with the minimal stamp
///    (strict <), kRandom victims the lane's next
///    SetAssocCache::random_victim_way draw;
///  * a no-allocate write miss counts but allocates nothing and draws no
///    random victim;
///  * the tick is the event ordinal, as in a standalone per-size cache
///    that sees exactly this stream.
/// Only a full set's ways are read back, and a set fills before it is
/// full, so stamps and owners left by an earlier lane are never read.
struct LaneState {
  std::vector<std::uint32_t> where;
  std::vector<std::uint32_t> owner;
  std::vector<std::uint32_t> stamps;
  std::vector<std::uint32_t> fill;

  /// Replay `events` accesses, access e to line id key[e] with miss
  /// attribution info[e], into `misses` and demand[slot]. set_of[k] is
  /// line id k's set among `sets`.
  void replay(const std::uint32_t* key, const std::uint32_t* info,
              std::size_t events, const std::vector<std::uint32_t>& set_of,
              std::uint32_t sets, std::uint32_t ways,
              mem::Replacement replacement, std::uint64_t l2_seed,
              std::uint64_t client_key, std::uint64_t& misses,
              std::uint64_t* demand) {
    const std::size_t slots = std::size_t{sets} * ways;
    where.assign(set_of.size(), kNone);
    fill.assign(sets, 0);
    if (owner.size() < slots) {
      owner.resize(slots);
      stamps.resize(slots);
    }
    const bool lru = replacement == mem::Replacement::kLru;
    const bool random = replacement == mem::Replacement::kRandom;
    std::uint64_t draws = 0;
    for (std::size_t e = 0; e < events; ++e) {
      const std::uint32_t tick = static_cast<std::uint32_t>(e + 1);
      const std::uint32_t k = key[e];
      const std::uint32_t held = where[k];
      if (held != kNone) {
        if (lru) stamps[held] = tick;
        continue;
      }
      ++misses;
      const std::uint32_t flags = info[e];
      if (flags & kDemand) ++demand[flags >> kSlotShift];
      if (flags & kNoAlloc) continue;
      const std::uint32_t set = set_of[k];
      const std::uint32_t base = set * ways;
      std::uint32_t victim = base + fill[set];
      if (fill[set] < ways) {
        ++fill[set];
      } else {
        if (random) {
          victim = base + mem::SetAssocCache::random_victim_way(
                              l2_seed, client_key, draws++, ways);
        } else {
          // Selects instead of branches: which way is oldest is data.
          victim = base;
          std::uint32_t oldest = stamps[base];
          for (std::uint32_t w = base + 1; w < base + ways; ++w) {
            const std::uint32_t stamp = stamps[w];
            victim = stamp < oldest ? w : victim;
            oldest = stamp < oldest ? stamp : oldest;
          }
        }
        where[owner[victim]] = kNone;
      }
      owner[victim] = k;
      where[k] = victim;
      stamps[victim] = tick;
    }
  }
};

}  // namespace

MultiReplay::MultiReplay(const CaptureRun& capture,
                         std::vector<ReplayGridPoint> points,
                         const mem::CacheConfig& l2, std::uint64_t l2_seed)
    : capture_(&capture),
      points_(std::move(points)),
      l2_(l2),
      l2_seed_(l2_seed) {
  if (capture_->trace.line_bytes != l2_.line_bytes)
    throw std::invalid_argument(
        "capture recorded at " + std::to_string(capture_->trace.line_bytes) +
        "-byte lines cannot replay on " + std::to_string(l2_.line_bytes) +
        "-byte L2 lines");
  slot_ids_.reserve(capture_->tasks.size());
  for (const CaptureTaskStats& t : capture_->tasks) slot_ids_.push_back(t.id);
  if (slot_ids_.size() >= (kNone >> kSlotShift))
    throw std::length_error("capture has too many tasks to replay (" +
                            std::to_string(slot_ids_.size()) + ")");

  const std::size_t nstreams = capture_->trace.streams.size();
  const std::size_t npoints = points_.size();
  client_sets_.resize(nstreams);
  misses_.resize(nstreams);
  demand_.resize(nstreams);
  for (std::size_t s = 0; s < nstreams; ++s) {
    const ClientTrace& stream = capture_->trace.streams[s];
    // Event ordinals and line ids are 32-bit in the replay state.
    if (stream.events() >= kNone)
      throw std::length_error("trace stream of " +
                              stream.client().to_string() + " has " +
                              std::to_string(stream.events()) +
                              " events, too many to replay");
    client_sets_[s].reserve(npoints);
    // entry_for throws for a client missing from ANY point's plan — the
    // same std::invalid_argument replay_fragment raises at that point,
    // just before any work instead of mid-sweep.
    for (const ReplayGridPoint& p : points_) {
      assert(p.plan != nullptr);
      client_sets_[s].push_back(
          std::max(entry_for(*p.plan, stream.client()).partition.num_sets,
                   1u));
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
  const DecodedStream d =
      decode(stream, slot_ids_, !capture_->is_scheduler_client(stream.client()),
             l2_.write_policy != mem::WritePolicy::kWriteThroughNoAllocate);

  std::vector<LaneGeom> geoms(npoints);
  for (std::size_t p = 0; p < npoints; ++p)
    geoms[p] = {FastMod::make(std::max(points_[p].plan->total_sets, 1u)),
                FastMod::make(client_sets_[s][p])};

  std::vector<std::size_t> exact;  // grid points that replay
  std::vector<std::uint32_t> count, touched;
  for (std::size_t p = 0; p < npoints; ++p) {
    if (count.size() < client_sets_[s][p]) count.resize(client_sets_[s][p]);
    if (conflict_free(geoms[p], l2_.ways, d, stream.lines(), count,
                      touched)) {
      misses_[s][p] = static_cast<std::uint32_t>(d.misses);
      for (std::size_t slot = 0; slot < nslots; ++slot)
        demand_[s][slot * npoints + p] =
            static_cast<std::uint32_t>(d.demand[slot]);
      continue;
    }
    exact.push_back(p);
  }
  replayed_[s] = exact.size();
  if (exact.empty()) return;

  const std::vector<std::uint64_t>& lines = stream.lines();
  std::vector<std::uint32_t> set_of(lines.size());
  std::vector<std::uint64_t> demand(nslots);
  LaneState lane;
  for (const std::size_t p : exact) {
    const std::uint32_t sets = client_sets_[s][p];
    if (std::uint64_t{sets} * l2_.ways >= kNone)
      throw std::length_error("replay lane of " + std::to_string(sets) +
                              " sets is too large");
    for (std::size_t id = 0; id < lines.size(); ++id)
      set_of[id] = set_index(geoms[p], lines[id]);
    std::uint64_t misses = 0;
    std::fill(demand.begin(), demand.end(), 0);
    lane.replay(d.line.data(), d.info.data(), d.line.size(), set_of, sets,
                l2_.ways, l2_.replacement, l2_seed_, stream.client().key(),
                misses, demand.data());
    misses_[s][p] = static_cast<std::uint32_t>(misses);
    for (std::size_t slot = 0; slot < nslots; ++slot)
      demand_[s][slot * npoints + p] = static_cast<std::uint32_t>(demand[slot]);
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
                                 ReplayKernel /*kernel*/) {
  std::vector<ProfileFragment> fragments;
  for (const MultiReplayJob& job : jobs) {
    assert(job.capture != nullptr);
    MultiReplay mr(*job.capture, job.points, l2, l2_seed);
    for (std::size_t s = 0; s < mr.num_streams(); ++s) mr.replay_stream(s);
    for (ProfileFragment& f : mr.fragments(surcharge))
      fragments.push_back(std::move(f));
  }
  return fold_fragments(std::move(fragments));
}

}  // namespace cms::opt
