#include "opt/trace_store.hpp"

#include <stdexcept>
#include <utility>

namespace cms::opt {

TraceStore::Pin& TraceStore::Pin::operator=(Pin&& other) noexcept {
  if (this != &other) {
    release();
    store_ = other.store_;
    digest_ = std::move(other.digest_);
    other.store_ = nullptr;
  }
  return *this;
}

void TraceStore::Pin::release() {
  if (store_ != nullptr) store_->unpin(digest_);
  store_ = nullptr;
}

TraceStore::TraceStore(std::string dir, bool read_only, Capacity capacity)
    : TraceStore(
          std::make_shared<DirBackend>(std::move(dir), /*create=*/!read_only),
          read_only, capacity) {}

TraceStore::TraceStore(std::shared_ptr<StoreBackend> backend, bool read_only,
                       Capacity capacity)
    : backend_(std::move(backend)), read_only_(read_only),
      capacity_(capacity) {
  if (backend_ == nullptr)
    throw std::invalid_argument("trace store needs a backend");
  if (auto* dir_backend = dynamic_cast<DirBackend*>(backend_.get()))
    dir_ = dir_backend->dir();
  // Index pre-existing entries; the backend lists them stalest-first
  // (mtime order, ties broken by digest) so a reopened store evicts the
  // stalest captures first, deterministically.
  for (const StoreBackend::ListedBlob& b : backend_->list(BlobKind::kTrace))
    index_.touch(b.digest, b.bytes);
}

std::string TraceStore::path_of(const std::string& digest) const {
  return backend_->path_of(BlobKind::kTrace, digest);
}

std::optional<CaptureRun> TraceStore::load(const std::string& digest) const {
  CaptureRun capture;
  const std::optional<std::uint64_t> bytes = read_verified(
      *backend_, BlobKind::kTrace, digest,
      [&](const StoreBackend::Blob& blob, const std::string& context) {
        std::string stored_digest;
        capture =
            decode_capture(blob.data(), blob.size(), context, &stored_digest);
        return stored_digest;
      });
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!bytes) {
      index_.erase(digest);  // may have been evicted by another process
      misses_.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }
    index_.touch(digest, *bytes);
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return capture;
}

void TraceStore::save(const std::string& digest,
                      const CaptureRun& capture) const {
  if (read_only_) return;
  const StoreBackend::Blob blob = encode_capture(capture, digest);
  backend_->put(BlobKind::kTrace, digest, blob);
  writes_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  index_.touch(digest, blob.size());  // the exact size, no re-stat race
  index_.enforce(*backend_, BlobKind::kTrace, capacity_, read_only_);
}

bool TraceStore::contains(const std::string& digest) const {
  const std::optional<std::uint64_t> sz =
      backend_->stat(BlobKind::kTrace, digest);
  std::lock_guard<std::mutex> lk(mu_);
  if (sz)
    index_.touch(digest, *sz);
  else
    index_.erase(digest);
  return sz.has_value();
}

TraceStore::Pin TraceStore::pin(const std::string& digest) const {
  {
    std::lock_guard<std::mutex> lk(mu_);
    index_.pin(digest);
  }
  return Pin(this, digest);
}

void TraceStore::unpin(const std::string& digest) const {
  std::lock_guard<std::mutex> lk(mu_);
  index_.unpin(digest);
}

TraceStore::GcResult TraceStore::gc() const {
  std::lock_guard<std::mutex> lk(mu_);
  return index_.enforce(*backend_, BlobKind::kTrace, capacity_, read_only_);
}

TraceStore::Stats TraceStore::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.tiers = backend_->tier_counters();
  std::lock_guard<std::mutex> lk(mu_);
  s.evictions = index_.evicted().evicted_entries;
  s.evicted_bytes = index_.evicted().evicted_bytes;
  s.entries = index_.entries();
  s.bytes = index_.bytes();
  s.pinned = index_.pinned();
  return s;
}

}  // namespace cms::opt
