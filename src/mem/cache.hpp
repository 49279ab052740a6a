// Set-associative cache model (tag store only).
//
// The model tracks which lines are resident and their dirtiness; data
// values live in the functional layer. Accesses return hit/miss, cold-miss
// classification and writeback information so the caller (hierarchy /
// DRAM) can account for traffic and latency.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "mem/cache_config.hpp"
#include "mem/client.hpp"

namespace cms::mem {

/// Outcome of a single line-granular cache access.
struct AccessResult {
  bool hit = false;
  bool cold = false;            // miss on a line never seen by this cache
  bool writeback = false;       // eviction of a dirty line occurred
  Addr victim_line = 0;         // line address written back (when writeback)
  ClientId victim_owner = ClientId::none();  // who had inserted the victim
};

/// Aggregate counters; kept per cache and per client.
struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t cold_misses = 0;
  std::uint64_t writebacks = 0;
  std::uint64_t evictions_by_other = 0;  // this client's line evicted by another client

  double miss_rate() const {
    return accesses ? static_cast<double>(misses) / static_cast<double>(accesses) : 0.0;
  }
  void merge(const CacheStats& o) {
    accesses += o.accesses;
    hits += o.hits;
    misses += o.misses;
    cold_misses += o.cold_misses;
    writebacks += o.writebacks;
    evictions_by_other += o.evictions_by_other;
  }
};

/// Range of ways a client may replace into (column caching / way
/// partitioning, the mechanism of [10]/[8] the paper compares against).
/// Lookups still hit in any way; only victim selection is restricted.
struct WayRange {
  std::uint32_t first_way = 0;
  std::uint32_t num_ways = 0;  // 0 = unrestricted

  bool unrestricted() const { return num_ways == 0; }
};

/// Plain set-associative cache with configurable replacement and write
/// policy. Set selection is delegated to the caller through an explicit
/// set index so that the partitioned L2 can remap indices (paper's index
/// translation); convenience entry points compute the conventional index.
///
/// Ownership semantics: a line belongs to the client that INSERTED it and
/// keeps that owner until eviction or flush — a hit by another client
/// (possible under way partitioning, where lookups search every way) does
/// not re-home the line. Insertion is what consumed the owner's capacity,
/// so `occupancy_of` and the `evictions_by_other` attribution follow the
/// inserter; rewriting the owner on hits would let a borrower "inherit"
/// the line and misattribute both from then on.
///
/// kRandom replacement uses counter-based per-CLIENT randomness: the n-th
/// random victim chosen for a client is mix64(seed, client, n) — a pure
/// function of the client's own replacement history, never of how its
/// traffic interleaves with other clients'. That determinism is what makes
/// kRandom exactly replayable from a per-client access trace
/// (opt/trace.hpp): a standalone cache with the same seed reproduces the
/// live victim sequence.
class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheConfig& cfg, std::uint64_t seed = 1);

  const CacheConfig& config() const { return cfg_; }
  std::uint32_t num_sets() const { return sets_; }

  /// Conventional set index of an address.
  std::uint32_t index_of(Addr addr) const {
    return static_cast<std::uint32_t>((addr >> line_shift_) % sets_);
  }
  Addr line_of(Addr addr) const { return addr >> line_shift_ << line_shift_; }

  /// Access one line at an explicit set index, attributed to `client`.
  /// `ways` optionally restricts which ways a miss may replace into
  /// (column-caching semantics: hits are found in any way).
  AccessResult access_at(std::uint32_t set_index, Addr addr, AccessType type,
                         ClientId client, WayRange ways = {});

  /// Access with the conventional index.
  AccessResult access(Addr addr, AccessType type, ClientId client) {
    return access_at(index_of(addr), addr, type, client);
  }

  /// The hit half of access(): if the line is resident, perform the
  /// access exactly as access() would and return true; on a miss return
  /// false and leave the cache untouched (tick and counters included).
  bool access_if_hit(Addr addr, AccessType type);

  /// Is the line currently resident (any set — uses the stored index)?
  bool contains(std::uint32_t set_index, Addr addr) const;

  /// Invalidate everything; dirty lines count as writebacks. Returns the
  /// number of dirty lines flushed.
  std::uint64_t flush();

  /// Invalidate all lines belonging to `client`; returns dirty count.
  std::uint64_t flush_client(ClientId client);

  /// Invalidate every line in sets [first_set, first_set + count); dirty
  /// lines count as writebacks. Returns the dirty count. Used when a set
  /// range changes hands (dynamic repartitioning): the leaving client's
  /// dirty data must drain and its stale lines must not pollute the new
  /// owner's range.
  std::uint64_t flush_sets(std::uint32_t first_set, std::uint32_t count);

  const CacheStats& stats() const { return stats_; }
  void reset_stats() { stats_ = CacheStats{}; }

  /// Number of currently valid lines (for occupancy inspection in tests).
  std::uint64_t occupancy() const;
  /// Number of valid lines owned by `client`.
  std::uint64_t occupancy_of(ClientId client) const;

  /// The counter-based kRandom victim stream, exposed as the pure
  /// function it is: the way (within a `count`-way replacement range)
  /// chosen for the n-th random replacement of the client with key
  /// `client_key` under cache seed `seed`. choose_victim and the fused
  /// replay kernel (opt/replay_kernel.hpp) BOTH call this, so the
  /// bit-identity contract between live caches and replay has exactly one
  /// definition. Lemire-mapped: uniform over [0, count) without modulo
  /// bias.
  static std::uint32_t random_victim_way(std::uint64_t seed,
                                         std::uint64_t client_key,
                                         std::uint64_t n,
                                         std::uint32_t count) {
    const std::uint64_t h =
        mix64(seed ^ mix64(client_key) ^ (n * 0x9E3779B97F4A7C15ull));
    return static_cast<std::uint32_t>(
        (static_cast<unsigned __int128>(h) * count) >> 64);
  }

  /// Replacement-state layout contract of this model, for read-only
  /// mirroring by the fused replay kernel: hit/miss outcomes depend only
  /// on (a) per-way line tags + valid bits, (b) per-way stamps driven by
  /// a per-cache access tick (LRU stamps on every touch, FIFO on
  /// insertion only), and (c) the per-client kRandom counters behind
  /// random_victim_way. Dirty bits, owners and the cold-miss table never
  /// influence an outcome.
  static constexpr bool kOutcomeStateIsTagsStampsCounters = true;

 private:
  struct Line {
    Addr tag_line = 0;  // full line address (tag comparison uses this)
    ClientId owner = ClientId::none();
    std::uint64_t stamp = 0;  // LRU: last use; FIFO: insertion time
    bool valid = false;
    bool dirty = false;
  };

  Line* find(std::uint32_t set_index, Addr line_addr);
  Line& choose_victim(std::uint32_t set_index, WayRange ways, ClientId client);
  /// Hit bookkeeping shared by access_at and access_if_hit.
  void touch_hit(Line& line, AccessType type);

  CacheConfig cfg_;
  std::uint32_t line_shift_;  // log2(line_bytes)
  std::uint32_t sets_;        // cfg_.num_sets()
  std::vector<Line> lines_;  // num_sets * ways, set-major
  std::uint64_t tick_ = 0;
  CacheStats stats_;
  std::uint64_t seed_;
  /// Per-client replacement counters of the counter-based kRandom stream.
  std::unordered_map<ClientId, std::uint64_t, ClientIdHash> rand_seq_;
  std::unordered_set<Addr> touched_lines_;  // for cold-miss classification
};

}  // namespace cms::mem
