// Persistent content-addressed store for profiling captures.
//
// PR 2 made the profiling sweep cheap inside one process (capture once per
// jitter seed, replay per grid point); the store makes captures durable
// across processes and runs. Entries are keyed by a DIGEST of everything
// the captured stream depends on — application/content fingerprint,
// platform + hierarchy configuration, scheduler policy, jitter seed, and
// the trace schema version (core::Experiment::trace_digest composes it).
// Content addressing is the safety property: any change to those inputs
// produces a different digest, so a stale entry can never be served for a
// changed experiment — it is simply never looked up. Each file also embeds
// its digest and a checksum (opt/trace.hpp format), so a renamed, copied
// or corrupted file is rejected at load with std::runtime_error.
//
// Usage (the Experiment facade does this when ExperimentConfig::trace_store
// is set):
//
//   opt::TraceStore store("traces/");            // read-write
//   if (auto hit = store.load(digest)) { ... }   // nullopt on miss
//   else { capture = run_instrumented(); store.save(digest, capture); }
//
// Capacity management (the planning service's long-running stores): a
// byte/entry budget with LRU eviction, kept by an opt::BudgetIndex
// (opt/store_policy.hpp — the same policy both plan-cache tiers use)
// seeded from the directory at construction, ordered by file mtime;
// save() and gc() delete the least-recently-used entries until the budget
// holds again. Entries PINNED by in-flight requests (pin(), RAII Pin
// handle, refcounted) are never evicted BY THIS INSTANCE — if only pinned
// entries remain, the store stays over budget rather than corrupt a
// capture someone is using. A pin names a digest, not a file: pinning
// before the entry exists is legal and protects the entry from the moment
// it is saved. Pins are per-instance state: another process (or another
// TraceStore over the same directory) enforcing its own budget may still
// delete the file — that degrades to a miss + re-capture on this side
// (see load() below), never to corruption.
//
// Thread-safety: every member is thread- and process-safe. Writes go
// through a temp file + atomic rename (concurrent writers of the same
// digest produce identical content, so either rename winning is correct);
// a load that finds the file vanished mid-read — another thread or
// process evicted it — reports a MISS, never an error (opt::read_verified).
// The hit/miss/write counters are atomic (lock-free, TSan-clean); one
// mutex guards the budget index (LRU order, sizes, pins, eviction totals)
// and is never held across file I/O except during eviction deletes and
// the re-stat of entries whose size could not be determined when they
// were indexed.
//
// Storage: all blob I/O and reopen indexing go through an
// opt::StoreBackend (opt/store_backend.hpp). The directory constructor
// builds a DirBackend (bit-compatible with the historical layout); the
// backend constructor composes anything else — a MemBackend for
// ephemeral stores, a TieredBackend for a local L1 over a fleet-shared
// L2 (whose per-tier counters surface through Stats::tiers). The store
// keeps the semantics: digest verification, LRU/budget/pins, counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "opt/store_backend.hpp"
#include "opt/store_policy.hpp"
#include "opt/trace.hpp"

namespace cms::opt {

class TraceStore {
 public:
  struct Stats {
    std::uint64_t hits = 0;       // load() found a valid entry
    std::uint64_t misses = 0;     // load() found nothing
    std::uint64_t writes = 0;     // save() persisted an entry
    std::uint64_t evictions = 0;  // entries deleted to satisfy the budget
    std::uint64_t evicted_bytes = 0;
    std::uint64_t entries = 0;  // resident entries right now
    std::uint64_t bytes = 0;    // resident on-disk bytes right now
    std::uint64_t pinned = 0;   // digests currently pinned
    /// Per-tier backend counters; nullopt unless the store sits on a
    /// TieredBackend.
    std::optional<StoreBackend::TierCounters> tiers;
  };

  /// Byte/entry budget of a read-write store; 0 means unlimited. Enforced
  /// after every save() and on demand by gc() — never below what the
  /// pinned entries occupy.
  using Capacity = opt::Capacity;
  /// What one eviction pass (gc() or a post-save enforcement) removed.
  using GcResult = opt::GcResult;

  /// Keeps a digest's entry resident while alive (refcounted; move-only).
  /// Destruction unpins; a default-constructed Pin holds nothing.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept
        : store_(other.store_), digest_(std::move(other.digest_)) {
      other.store_ = nullptr;
    }
    Pin& operator=(Pin&& other) noexcept;
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { release(); }

    const std::string& digest() const { return digest_; }

   private:
    friend class TraceStore;
    Pin(const TraceStore* store, std::string digest)
        : store_(store), digest_(std::move(digest)) {}
    void release();

    const TraceStore* store_ = nullptr;
    std::string digest_;
  };

  /// Open (and in read-write mode create) the store directory, indexing
  /// any existing entries (LRU order seeded from file mtimes, ties by
  /// digest). Throws std::runtime_error when a read-write store
  /// directory cannot be created.
  explicit TraceStore(std::string dir, bool read_only = false,
                      Capacity capacity = Capacity());
  /// Open over an explicit backend (mem, tiered, ...); same indexing.
  /// Throws std::invalid_argument on a null backend.
  explicit TraceStore(std::shared_ptr<StoreBackend> backend,
                      bool read_only = false, Capacity capacity = Capacity());

  const std::string& dir() const { return dir_; }
  const std::shared_ptr<StoreBackend>& backend() const { return backend_; }
  bool read_only() const { return read_only_; }
  const Capacity& capacity() const { return capacity_; }

  /// Path an entry for `digest` would live at (bench reporting, tests);
  /// "" over a pathless (memory) backend.
  std::string path_of(const std::string& digest) const;

  /// Look up a capture by digest. Returns nullopt on a miss — including
  /// an entry that vanished mid-read because another thread or process
  /// evicted it; throws std::runtime_error (naming the file) on a corrupt
  /// or mislabeled entry — corruption is surfaced, never silently
  /// re-simulated.
  std::optional<CaptureRun> load(const std::string& digest) const;

  /// Persist a capture under `digest`, then enforce the capacity budget
  /// (evicting LRU unpinned entries, never the one just written unless it
  /// alone exceeds the budget and is unpinned). No-op in read-only mode.
  void save(const std::string& digest, const CaptureRun& capture) const;

  /// True when an entry for `digest` is resident (freshens its LRU slot).
  /// A cheap existence probe — the file is not validated and neither the
  /// hit nor the miss counter moves; use load() to consume the capture.
  bool contains(const std::string& digest) const;

  /// Pin `digest` against eviction until the returned handle dies. Legal
  /// before the entry exists (protects it from the moment of save).
  Pin pin(const std::string& digest) const;

  /// Enforce the capacity budget now; returns what was evicted. Also
  /// re-stats any entry indexed while its size could not be determined,
  /// so stats().bytes converges to the on-disk truth. Never evicts on
  /// read-only or unlimited stores.
  GcResult gc() const;

  Stats stats() const;

 private:
  void unpin(const std::string& digest) const;

  std::shared_ptr<StoreBackend> backend_;
  std::string dir_;  // "" when constructed over a pathless backend
  bool read_only_;
  Capacity capacity_;

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> writes_{0};

  mutable std::mutex mu_;  // guards index_
  mutable BudgetIndex index_;
};

}  // namespace cms::opt
