// Store policy shared by the trace store (opt/trace_store.hpp) and both
// tiers of the plan cache (opt/plan_cache.hpp): the LRU byte/entry budget
// and the verified read. Mechanism — where the bytes live — stays behind
// opt::StoreBackend; format encode/decode stays with each store.
//
//  * BudgetIndex — one tier's in-memory index of entry sizes and last
//    use, with pins, the re-stat of sizes that could not be determined
//    when an entry was indexed, and the eviction loop that enforces a
//    Capacity. Eviction never picks a pinned entry, keeps (and skips for
//    the rest of the pass) an entry whose removal FAILED rather than
//    orphan its bytes, and never counts an entry that had already
//    vanished as an eviction it performed.
//  * read_verified — get -> decode -> stored-digest check with the
//    one-retry rule that separates an eviction race (a miss) from
//    genuine corruption (an error naming the entry).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "opt/store_backend.hpp"

namespace cms::opt {

/// Byte/entry budget of one store tier; 0 means unlimited.
struct Capacity {
  std::uint64_t max_bytes = 0;
  std::uint64_t max_entries = 0;

  bool unlimited() const { return max_bytes == 0 && max_entries == 0; }
};

/// What eviction removed: one pass, or a lifetime total.
struct GcResult {
  std::uint64_t evicted_entries = 0;
  std::uint64_t evicted_bytes = 0;

  GcResult& operator+=(const GcResult& other) {
    evicted_entries += other.evicted_entries;
    evicted_bytes += other.evicted_bytes;
    return *this;
  }
};

/// LRU index over one tier's entries. Not synchronized: the owning store
/// guards it with its own mutex, which is therefore held across the
/// stat/remove calls enforce() and evict() make.
class BudgetIndex {
 public:
  using RemoveFn =
      std::function<StoreBackend::RemoveOutcome(const std::string& key)>;

  /// Record a use of `key`, inserting it or making it the most recent.
  /// `bytes` == 0 means "size unknown": a new entry is re-statted by the
  /// next enforce(); an indexed entry keeps the size it has.
  void touch(const std::string& key, std::uint64_t bytes);
  /// Forget `key` (it vanished); claims no eviction.
  void erase(const std::string& key);

  /// Refcounted protection from eviction. Pinning a key that is not
  /// indexed yet is legal and protects it from the moment it is touched.
  void pin(const std::string& key);
  void unpin(const std::string& key);

  /// Evict least-recently-used unpinned entries through `remove` until
  /// `cap` holds; returns what this pass evicted. `remove` reports
  /// kFailed for an entry still occupying storage (kept and skipped for
  /// the rest of the pass) and kVanished for one a peer already deleted
  /// (dropped, not counted). A tier whose pins alone bust the budget
  /// stays over it.
  GcResult evict(const Capacity& cap, const RemoveFn& remove);

  /// The budget pass of a tier stored as `kind` blobs in `backend`:
  /// re-stat every unknown size (dropping entries that are gone), then —
  /// unless `read_only` — evict() through backend.remove.
  GcResult enforce(StoreBackend& backend, BlobKind kind, const Capacity& cap,
                   bool read_only);

  std::uint64_t entries() const { return entries_.size(); }
  std::uint64_t bytes() const { return bytes_; }
  std::uint64_t pinned() const { return pins_.size(); }
  /// Lifetime total of every evict() pass.
  const GcResult& evicted() const { return evicted_; }

 private:
  struct Entry {
    std::uint64_t bytes = 0;     // 0 = unknown, re-statted by enforce()
    std::uint64_t last_use = 0;  // logical clock, larger = more recent
  };
  using Entries = std::map<std::string, Entry>;

  void erase_at(Entries::iterator it);

  Entries entries_;
  std::map<std::string, std::uint32_t> pins_;  // key -> refcount
  std::uint64_t clock_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t unknown_sizes_ = 0;  // entries with bytes == 0
  GcResult evicted_;
};

/// Decodes one blob read by read_verified: throws std::runtime_error on a
/// malformed blob (its message should name `context`) and returns the
/// digest embedded in it.
using VerifiedDecode = std::function<std::string(
    const StoreBackend::Blob& bytes, const std::string& context)>;

/// Read and decode the `kind` blob stored under `digest`. Returns the
/// blob's size, or nullopt on a miss — including an entry that vanished
/// mid-read because a peer evicted it. A throwing get() or decode is
/// retried once while the entry still exists (entries are immutable per
/// digest, so a successful reread is the same value and a second failure
/// is real corruption); the second failure propagates. A blob whose
/// embedded digest is not `digest` (a renamed or copied entry) throws.
/// The error context is the entry's path, or the backend's description
/// plus the file name for pathless backends.
std::optional<std::uint64_t> read_verified(StoreBackend& backend,
                                           BlobKind kind,
                                           const std::string& digest,
                                           const VerifiedDecode& decode);

}  // namespace cms::opt
