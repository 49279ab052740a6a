#include "opt/store_policy.hpp"

#include <set>
#include <stdexcept>

namespace cms::opt {

void BudgetIndex::touch(const std::string& key, std::uint64_t bytes) {
  Entry& e = entries_[key];
  if (e.last_use == 0) {  // new entry
    e.bytes = bytes;
    bytes_ += bytes;
    if (bytes == 0) ++unknown_sizes_;  // stat failed: re-stat later
  } else if (bytes != 0 && bytes != e.bytes) {  // rewritten, or a size that
    if (e.bytes == 0) --unknown_sizes_;         // could finally be statted
    bytes_ += bytes - e.bytes;
    e.bytes = bytes;
  }
  e.last_use = ++clock_;
}

void BudgetIndex::erase(const std::string& key) {
  const auto it = entries_.find(key);
  if (it != entries_.end()) erase_at(it);
}

void BudgetIndex::erase_at(Entries::iterator it) {
  if (it->second.bytes == 0) --unknown_sizes_;
  bytes_ -= it->second.bytes;
  entries_.erase(it);
}

void BudgetIndex::pin(const std::string& key) { ++pins_[key]; }

void BudgetIndex::unpin(const std::string& key) {
  const auto it = pins_.find(key);
  if (it == pins_.end()) return;
  if (--it->second == 0) pins_.erase(it);
}

GcResult BudgetIndex::evict(const Capacity& cap, const RemoveFn& remove) {
  GcResult out;
  const auto over = [&] {
    return (cap.max_bytes != 0 && bytes_ > cap.max_bytes) ||
           (cap.max_entries != 0 && entries_.size() > cap.max_entries);
  };
  std::set<std::string> skipped;  // remove failed this pass: not a victim
  while (over()) {
    // Least-recently-used unpinned entry; pinned entries are invisible to
    // eviction, so a tier whose pins alone bust the budget stays over it.
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (pins_.contains(it->first) || skipped.contains(it->first)) continue;
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use)
        victim = it;
    }
    if (victim == entries_.end()) break;
    const StoreBackend::RemoveOutcome removed = remove(victim->first);
    if (removed == StoreBackend::RemoveOutcome::kFailed) {
      // Removal FAILED with the entry still occupying storage: dropping
      // the index entry would orphan bytes nobody accounts for until
      // reopen, and counting them as evicted would claim a reclamation
      // that never happened. Keep the entry (the budget stays busted,
      // like a pinned entry) and skip it for the rest of this pass so
      // enforcement cannot spin on it.
      skipped.insert(victim->first);
      continue;
    }
    if (removed == StoreBackend::RemoveOutcome::kRemoved) {
      out.evicted_entries += 1;
      out.evicted_bytes += victim->second.bytes;
    }
    // kVanished: the entry had already disappeared (another process
    // evicted it) — resync the index without claiming an eviction we
    // never did.
    erase_at(victim);
  }
  evicted_ += out;
  return out;
}

GcResult BudgetIndex::enforce(StoreBackend& backend, BlobKind kind,
                              const Capacity& cap, bool read_only) {
  // Entries indexed while their stat failed (a peer's eviction racing the
  // save, a directory masquerading as an entry) carry bytes == 0, which
  // silently undercounts bytes_ and lets the byte budget be busted. Fix
  // them up before any accounting decision instead of freezing at 0.
  for (auto it = entries_.begin();
       it != entries_.end() && unknown_sizes_ > 0;) {
    if (it->second.bytes != 0) {
      ++it;
      continue;
    }
    const std::optional<std::uint64_t> sz = backend.stat(kind, it->first);
    if (!sz) {
      // Gone entirely (the racing eviction won): drop the stale entry.
      erase_at(it++);
      continue;
    }
    if (*sz > 0) {
      it->second.bytes = *sz;
      bytes_ += *sz;
      --unknown_sizes_;
    }
    ++it;  // a size still unknown is tried again by the next pass
  }
  if (read_only) return {};
  return evict(cap, [&](const std::string& key) {
    return backend.remove(kind, key);
  });
}

std::optional<std::uint64_t> read_verified(StoreBackend& backend,
                                           BlobKind kind,
                                           const std::string& digest,
                                           const VerifiedDecode& decode) {
  std::string context = backend.path_of(kind, digest);
  if (context.empty())
    context = backend.describe() + ":" + digest + blob_extension(kind);
  std::string stored_digest;
  std::uint64_t bytes = 0;
  for (int attempt = 0;; ++attempt) {
    std::optional<StoreBackend::Blob> blob;
    try {
      blob = backend.get(kind, digest);
    } catch (const std::runtime_error&) {
      // Present but unreadable: either genuine breakage or an
      // evict-then-resave race mid-read; ONE retry distinguishes them
      // (the backend already reports a vanished entry as nullopt).
      if (attempt == 0) continue;
      throw;
    }
    if (!blob) return std::nullopt;
    try {
      stored_digest = decode(*blob, context);
      bytes = blob->size();
      break;
    } catch (const std::runtime_error&) {
      // A decode failure with the entry gone again is the eviction race
      // resolving to a miss. Still present means either genuine
      // corruption or an evict-then-resave race (a peer wrote the entry
      // back after the eviction that broke our read); one retry
      // distinguishes them — entries are immutable per digest, so a
      // successful reread is the same value, and a second failure on a
      // present entry is real corruption to surface.
      if (!backend.contains(kind, digest)) return std::nullopt;
      if (attempt == 0) continue;
      throw;
    }
  }
  // The digest inside the blob must match the name it was addressed by;
  // a renamed or hand-copied entry must never masquerade as another key.
  if (stored_digest != digest)
    throw std::runtime_error(context + ": stored digest " + stored_digest +
                             " does not match requested " + digest);
  return bytes;
}

}  // namespace cms::opt
