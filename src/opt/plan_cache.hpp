// Two-tier memoized plan cache — the compositionality result applied to
// the WHOLE planning pipeline, not just its captures.
//
// The paper's decomposition makes every stage a pure function: a capture
// is a pure function of its content digest, the folded MissProfile is a
// pure function of the captures and the sweep grid, and the MCKP plan is
// a pure function of the profile and the planner configuration. A plan
// response is therefore fully content-addressable: hash everything the
// answer depends on (PlanKey below) and identical requests can be served
// without pinning a single capture, replaying a single stream or solving
// a single knapsack.
//
//   Tier 1 (memory): PlanKey digest -> shared_ptr<const PlanCacheEntry>,
//     LRU-evicted under the cache's entry/byte budget. Readers hold the
//     shared_ptr, so eviction can drop the cache's reference but never a
//     result a request is still copying from (pin-during-read).
//   Tier 2 (disk):   <digest>.cmsplan blobs behind an opt::StoreBackend
//     (opt/store_backend.hpp) — typically the trace store's own backend,
//     so plans share its directory (and tiering) with the .cmstrace
//     entries, but any backend (dir, mem, tiered) composes. The format
//     is a versioned magic + FNV-1a trailer (below); DirBackend
//     publishes via temp file + atomic rename. Warm plans survive the
//     process; an entry another process pruned mid-read is a MISS, a
//     corrupt or mislabeled one THROWS.
//     Stale entries cannot be served at all: the PlanKey digest includes
//     the schema version and every planning input, so any change
//     addresses a different blob (invalidation by addressing, exactly
//     like the trace store).
//
// Both tiers keep their LRU order and byte accounting in an
// opt::BudgetIndex and tier-2 reads go through opt::read_verified
// (opt/store_policy.hpp) — the same policy as the trace store.
//
// Thread-safety: get()/put()/gc()/stats() are safe from any number of
// threads. Hit/miss/insert/write counters are lock-free atomics mirroring
// TraceStore::Stats; one mutex guards tier 1 and the two budget indexes
// and is never held across file I/O except during tier-2 eviction
// removals and re-stats (the trace store's rule).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "opt/planner.hpp"
#include "opt/profile.hpp"
#include "opt/store_backend.hpp"
#include "opt/store_policy.hpp"

namespace cms::opt {

/// Everything a plan response depends on, canonicalized. digest() is the
/// cache key: FNV-1a 128 over the schema version, the SORTED capture
/// digests (they already content-address the application, platform,
/// policy and jitter seeds), the resolved sweep grid and run count, the
/// resolved L2 size and the planner configuration. curvature_eps is
/// canonicalized before hashing — every negative value means "auto-tune
/// from the profile" (PlannerConfig::kAutoCurvatureEps), and the tuned
/// value is itself a pure function of the captures + grid already in the
/// key, so all spellings of auto collapse to one entry.
struct PlanKey {
  std::vector<std::string> capture_digests;  // sorted by digest()
  std::vector<std::uint32_t> grid;
  std::uint32_t runs = 0;
  std::uint32_t l2_size_bytes = 0;
  PlannerConfig planner;

  std::string digest() const;
};

/// One task's prediction at its assigned size (mirrored into
/// svc::PlanResponse::TaskPrediction; lives here so the cache layer does
/// not depend on svc).
struct PlanPrediction {
  std::string name;
  std::uint32_t sets = 0;
  double misses = 0.0;
  double cycles = 0.0;

  friend bool operator==(const PlanPrediction&, const PlanPrediction&) =
      default;
};

/// The memoized result: everything needed to answer a repeat request
/// bit-identically without touching the trace store. The profile is
/// carried even though a plan hit only reads `plan` + `predictions`
/// today: it is the self-contained evidence of what the plan was
/// computed from (debuggability of a cache whose inputs may since have
/// been evicted), and the enabler for re-planning the SAME captures
/// under a different planner config without a replay sweep — the
/// ROADMAP's request-batching item.
struct PlanCacheEntry {
  MissProfile profile;
  PartitionPlan plan;
  std::vector<PlanPrediction> predictions;
  /// The curvature-thinning tolerance the planner actually used (auto
  /// sentinel resolved via auto_curvature_eps) — observability only, the
  /// key never depends on it.
  double curvature_eps = 0.0;
};

// ---- Versioned binary file format (tier 2) ----
//
// Layout mirrors the trace capture format (opt/trace.hpp):
//   [0..7]   magic "CMSPLAN_"
//   [8..11]  fixed32 schema version (kPlanFormatVersion)
//   payload  varint/str encoded: embedded PlanKey digest (verified on
//            load so a renamed/copied file never serves the wrong key),
//            resolved curvature_eps, the MissProfile (raw Welford state,
//            doubles as fixed64 bit patterns — bit-exact), the
//            PartitionPlan and the prediction table,
//   trailer  fixed64 FNV-1a checksum over every preceding byte.
// Truncation, bad magic, a FUTURE schema version, checksum mismatch and
// trailing garbage all throw std::runtime_error naming the context (the
// file path); the version check precedes the checksum.

inline constexpr char kPlanMagic[8] = {'C', 'M', 'S', 'P', 'L', 'A', 'N', '_'};
inline constexpr std::uint32_t kPlanFormatVersion = 1;

std::vector<std::uint8_t> encode_plan_entry(const PlanCacheEntry& entry,
                                            std::string_view digest);
PlanCacheEntry decode_plan_entry(const std::uint8_t* data, std::size_t size,
                                 const std::string& context,
                                 std::string* digest = nullptr);

class PlanCache {
 public:
  struct Config {
    /// Tier-2 backend (typically the trace store's, so .cmsplan entries
    /// share its directory; mem, tiered, ... compose too). Null disables
    /// tier 2 — entries then live and die with this instance.
    std::shared_ptr<StoreBackend> backend;
    /// A read-only tier 2 serves warm hits but never writes (frozen CI
    /// stores). Ignored without a tier 2.
    bool read_only = false;
    /// Entry/byte budget applied to EACH tier; 0 = unlimited. Bytes are
    /// the entries' encoded sizes. Tier 2's LRU order is seeded from the
    /// backend's stalest-first listing on open, like the store.
    Capacity budget;
  };

  /// Counters mirror TraceStore::Stats: hits/misses/inserts are
  /// lock-free atomics; hits = mem_hits + disk_hits and evictions =
  /// mem_evictions + disk_evictions.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;  // put() calls that stored a new result
    std::uint64_t mem_hits = 0;
    std::uint64_t disk_hits = 0;   // served from tier 2 (then promoted)
    std::uint64_t disk_writes = 0; // .cmsplan blobs persisted
    std::uint64_t evictions = 0;   // both tiers combined
    std::uint64_t evicted_bytes = 0;
    std::uint64_t mem_evictions = 0;        // tier-1 LRU drops
    std::uint64_t mem_evicted_bytes = 0;
    std::uint64_t disk_evictions = 0;       // tier-2 removals
    std::uint64_t disk_evicted_bytes = 0;
    std::uint64_t entries = 0;      // tier-1 resident entries
    std::uint64_t bytes = 0;        // tier-1 resident encoded bytes
    std::uint64_t disk_entries = 0; // tier-2 indexed entries
    std::uint64_t disk_bytes = 0;   // tier-2 indexed bytes
    /// Per-tier backend counters; nullopt unless tier 2 sits on a
    /// TieredBackend.
    std::optional<StoreBackend::TierCounters> tiers;
  };

  /// Open the cache, indexing any existing tier-2 .cmsplan entries
  /// oldest-first (mtime ties broken by digest).
  explicit PlanCache(Config cfg);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  bool disk_tier() const { return cfg_.backend != nullptr; }
  const Config& config() const { return cfg_; }

  /// Path the tier-2 entry for `digest` would live at ("" without a
  /// tier 2 or over a pathless backend).
  std::string path_of(const std::string& digest) const;

  /// Look up a memoized plan. Tier 1 first; on a memory miss the disk
  /// tier is consulted and a hit is promoted back into memory. Returns
  /// null on a miss — including a .cmsplan file that vanished mid-read
  /// (another process pruned it); throws std::runtime_error on a corrupt
  /// or mislabeled file — corruption is surfaced, never silently
  /// replanned over.
  std::shared_ptr<const PlanCacheEntry> get(const std::string& digest);

  /// Memoize `entry` under `digest` in both tiers, then enforce the
  /// budgets. The disk write is best-effort: an I/O failure is logged
  /// and the memory tier still serves the entry (never throws).
  void put(const std::string& digest, PlanCacheEntry entry);

  /// Enforce both budgets now; returns what was evicted (both tiers).
  GcResult gc();

  Stats stats() const;

 private:
  void insert_mem_locked(const std::string& digest,
                         std::shared_ptr<const PlanCacheEntry> entry,
                         std::uint64_t bytes);
  GcResult evict_mem_locked();
  GcResult enforce_disk_locked();

  Config cfg_;

  std::atomic<std::uint64_t> mem_hits_{0};
  std::atomic<std::uint64_t> disk_hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> disk_writes_{0};

  mutable std::mutex mu_;  // guards mem_, mem_index_, disk_index_
  std::map<std::string, std::shared_ptr<const PlanCacheEntry>> mem_;
  BudgetIndex mem_index_;
  BudgetIndex disk_index_;
};

}  // namespace cms::opt
