#include "opt/plan_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/log.hpp"
#include "common/serialize.hpp"

namespace cms::opt {

namespace {

/// Doubles travel as their IEEE bit pattern: the cache's contract is a
/// BIT-identical round trip (PartitionPlan::identical and the
/// predictions' operator==), which decimal formatting cannot give.
void put_double(serialize::ByteWriter& w, double v) {
  w.fixed64(std::bit_cast<std::uint64_t>(v));
}

double get_double(serialize::ByteReader& rd) {
  return std::bit_cast<double>(rd.fixed64());
}

void put_client(serialize::ByteWriter& w, mem::ClientId c) {
  w.u8(static_cast<std::uint8_t>(c.kind));
  w.svarint(c.id);
}

mem::ClientId get_client(serialize::ByteReader& rd) {
  mem::ClientId c;
  c.kind = static_cast<mem::ClientKind>(rd.u8());
  c.id = static_cast<std::int32_t>(rd.svarint());
  return c;
}

void put_plan(serialize::ByteWriter& w, const PartitionPlan& plan) {
  w.varint(plan.entries.size());
  for (const PlanEntry& e : plan.entries) {
    put_client(w, e.client);
    w.str(e.name);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u8(e.is_task ? 1 : 0);
    w.varint(e.sets);
    w.varint(e.partition.base_set);
    w.varint(e.partition.num_sets);
    put_double(w, e.expected_misses);
  }
  w.varint(plan.total_sets);
  w.varint(plan.used_sets);
  w.varint(plan.spare.base_set);
  w.varint(plan.spare.num_sets);
  put_double(w, plan.expected_task_misses);
  w.u8(plan.feasible ? 1 : 0);
}

PartitionPlan get_plan(serialize::ByteReader& rd) {
  PartitionPlan plan;
  const std::uint64_t num_entries = rd.count("plan entry");
  plan.entries.reserve(num_entries);
  for (std::uint64_t i = 0; i < num_entries; ++i) {
    PlanEntry e;
    e.client = get_client(rd);
    e.name = rd.str();
    e.kind = static_cast<kpn::BufferKind>(rd.u8());
    e.is_task = rd.u8() != 0;
    e.sets = static_cast<std::uint32_t>(rd.varint());
    e.partition.base_set = static_cast<std::uint32_t>(rd.varint());
    e.partition.num_sets = static_cast<std::uint32_t>(rd.varint());
    e.expected_misses = get_double(rd);
    plan.entries.push_back(std::move(e));
  }
  plan.total_sets = static_cast<std::uint32_t>(rd.varint());
  plan.used_sets = static_cast<std::uint32_t>(rd.varint());
  plan.spare.base_set = static_cast<std::uint32_t>(rd.varint());
  plan.spare.num_sets = static_cast<std::uint32_t>(rd.varint());
  plan.expected_task_misses = get_double(rd);
  plan.feasible = rd.u8() != 0;
  return plan;
}

}  // namespace

std::string PlanKey::digest() const {
  serialize::ByteWriter w;
  w.varint(kPlanFormatVersion);
  // Canonical capture order: the profile folds fragments by schedule
  // position, not digest order, so two requests over the same capture SET
  // produce the same plan — sort so they produce the same key too.
  std::vector<std::string> sorted = capture_digests;
  std::sort(sorted.begin(), sorted.end());
  w.varint(sorted.size());
  for (const std::string& d : sorted) w.str(d);
  w.varint(grid.size());
  for (const std::uint32_t sets : grid) w.varint(sets);
  w.varint(runs);
  w.varint(l2_size_bytes);
  w.varint(planner.frame_buffer_sets);
  w.varint(planner.segment_sets);
  // Retired planner knobs keep their bytes (an empty size grid, pruning
  // on), so existing keys and .cmsplan entries stay valid.
  w.varint(0);
  w.u8(1);
  // Any negative eps means auto-tune; the tuned value is a pure function
  // of the captures + grid hashed above, so all autos share one key.
  put_double(w, planner.curvature_eps < 0.0
                    ? PlannerConfig::kAutoCurvatureEps
                    : planner.curvature_eps);
  w.u8(0);  // retired solver selection: always DP
  w.varint(planner.max_fifo_sets);
  return serialize::fnv1a128_hex(w.bytes().data(), w.size());
}

std::vector<std::uint8_t> encode_plan_entry(const PlanCacheEntry& entry,
                                            std::string_view digest) {
  serialize::ByteWriter w;
  w.raw(reinterpret_cast<const std::uint8_t*>(kPlanMagic), sizeof(kPlanMagic));
  w.fixed32(kPlanFormatVersion);
  w.str(digest);
  put_double(w, entry.curvature_eps);
  put_plan(w, entry.plan);
  w.varint(entry.predictions.size());
  for (const PlanPrediction& p : entry.predictions) {
    w.str(p.name);
    w.varint(p.sets);
    put_double(w, p.misses);
    put_double(w, p.cycles);
  }
  w.fixed64(serialize::fnv1a64(w.bytes().data(), w.size()));
  return w.take();
}

PlanCacheEntry decode_plan_entry(const std::uint8_t* data, std::size_t size,
                                 const std::string& context,
                                 std::string* digest) {
  constexpr std::size_t kHeader = sizeof(kPlanMagic) + 4;  // magic + version
  constexpr std::size_t kTrailer = 8;                      // checksum
  if (size < kHeader + kTrailer)
    throw std::runtime_error(context + ": truncated plan cache file (" +
                             std::to_string(size) + " bytes)");
  if (std::memcmp(data, kPlanMagic, sizeof(kPlanMagic)) != 0)
    throw std::runtime_error(context +
                             ": bad magic (not a CMS plan cache file)");

  serialize::ByteReader rd(data, size - kTrailer, context);
  rd.raw(sizeof(kPlanMagic));
  const std::uint32_t version = rd.fixed32();
  // Version before checksum: another format may checksum differently but
  // must still be reported as a version problem, not corruption.
  if (version != kPlanFormatVersion)
    throw std::runtime_error(
        context + ": plan cache schema version " + std::to_string(version) +
        " is not the version this build reads (" +
        std::to_string(kPlanFormatVersion) + ")");

  serialize::ByteReader trailer(data + size - kTrailer, kTrailer, context);
  if (trailer.fixed64() != serialize::fnv1a64(data, size - kTrailer))
    throw std::runtime_error(context + ": checksum mismatch (corrupt file)");

  PlanCacheEntry entry;
  const std::string stored_digest = rd.str();
  if (digest != nullptr) *digest = stored_digest;
  entry.curvature_eps = get_double(rd);
  entry.plan = get_plan(rd);
  const std::uint64_t num_predictions = rd.count("prediction");
  entry.predictions.reserve(num_predictions);
  for (std::uint64_t i = 0; i < num_predictions; ++i) {
    PlanPrediction p;
    p.name = rd.str();
    p.sets = static_cast<std::uint32_t>(rd.varint());
    p.misses = get_double(rd);
    p.cycles = get_double(rd);
    entry.predictions.push_back(std::move(p));
  }
  if (!rd.done())
    throw std::runtime_error(context + ": trailing garbage after payload");
  return entry;
}

// ---- PlanCache ----

PlanCache::PlanCache(Config cfg) : cfg_(std::move(cfg)) {
  if (!disk_tier()) return;
  // Index pre-existing .cmsplan entries; the backend lists them
  // stalest-first (mtime order, digest tie-break) — the same reopen
  // semantics as the trace store sharing this directory.
  for (const StoreBackend::ListedBlob& b : cfg_.backend->list(BlobKind::kPlan))
    disk_index_.touch(b.digest, b.bytes);
}

std::string PlanCache::path_of(const std::string& digest) const {
  return disk_tier() ? cfg_.backend->path_of(BlobKind::kPlan, digest)
                     : std::string();
}

std::shared_ptr<const PlanCacheEntry> PlanCache::get(
    const std::string& digest) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = mem_.find(digest);
    if (it != mem_.end()) {
      mem_index_.touch(digest, 0);  // indexed: keeps its size
      mem_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  if (!disk_tier()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }

  PlanCacheEntry loaded;
  const std::optional<std::uint64_t> bytes = read_verified(
      *cfg_.backend, BlobKind::kPlan, digest,
      [&](const StoreBackend::Blob& blob, const std::string& context) {
        std::string stored_digest;
        loaded = decode_plan_entry(blob.data(), blob.size(), context,
                                   &stored_digest);
        return stored_digest;
      });
  std::lock_guard<std::mutex> lk(mu_);
  if (!bytes) {
    disk_index_.erase(digest);  // pruned by another process: resync
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  auto entry = std::make_shared<const PlanCacheEntry>(std::move(loaded));
  // Promote into tier 1 so the next hit skips the file entirely.
  insert_mem_locked(digest, entry, *bytes);
  disk_index_.touch(digest, *bytes);
  disk_hits_.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

void PlanCache::put(const std::string& digest, PlanCacheEntry entry) {
  entry.profile = MissProfile();
  const std::vector<std::uint8_t> blob = encode_plan_entry(entry, digest);
  {
    std::lock_guard<std::mutex> lk(mu_);
    insert_mem_locked(
        digest, std::make_shared<const PlanCacheEntry>(std::move(entry)),
        blob.size());
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);

  if (!disk_tier() || cfg_.read_only) return;
  try {
    cfg_.backend->put(BlobKind::kPlan, digest, blob);
  } catch (const std::exception& e) {
    // Tier 2 is an amortization, not a correctness boundary: the memory
    // tier already serves the entry, so a failed persist only costs a
    // future process a recompute.
    log_warn() << "plan cache disk write failed: " << e.what();
    return;
  }
  disk_writes_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  disk_index_.touch(digest, blob.size());
  enforce_disk_locked();
}

void PlanCache::insert_mem_locked(
    const std::string& digest, std::shared_ptr<const PlanCacheEntry> entry,
    std::uint64_t bytes) {
  mem_[digest] = std::move(entry);
  mem_index_.touch(digest, bytes);
  evict_mem_locked();
}

GcResult PlanCache::evict_mem_locked() {
  // Readers holding the shared_ptr keep their entry alive — eviction only
  // drops the cache's reference (pin-during-read).
  return mem_index_.evict(cfg_.budget, [&](const std::string& digest) {
    mem_.erase(digest);
    return StoreBackend::RemoveOutcome::kRemoved;
  });
}

GcResult PlanCache::enforce_disk_locked() {
  if (!disk_tier()) return {};
  return disk_index_.enforce(*cfg_.backend, BlobKind::kPlan, cfg_.budget,
                             cfg_.read_only);
}

GcResult PlanCache::gc() {
  std::lock_guard<std::mutex> lk(mu_);
  GcResult out = evict_mem_locked();
  out += enforce_disk_locked();
  return out;
}

PlanCache::Stats PlanCache::stats() const {
  Stats s;
  s.mem_hits = mem_hits_.load(std::memory_order_relaxed);
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.hits = s.mem_hits + s.disk_hits;
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.disk_writes = disk_writes_.load(std::memory_order_relaxed);
  if (disk_tier()) s.tiers = cfg_.backend->tier_counters();
  std::lock_guard<std::mutex> lk(mu_);
  s.mem_evictions = mem_index_.evicted().evicted_entries;
  s.mem_evicted_bytes = mem_index_.evicted().evicted_bytes;
  s.disk_evictions = disk_index_.evicted().evicted_entries;
  s.disk_evicted_bytes = disk_index_.evicted().evicted_bytes;
  s.evictions = s.mem_evictions + s.disk_evictions;
  s.evicted_bytes = s.mem_evicted_bytes + s.disk_evicted_bytes;
  s.entries = mem_index_.entries();
  s.bytes = mem_index_.bytes();
  s.disk_entries = disk_index_.entries();
  s.disk_bytes = disk_index_.bytes();
  return s;
}

}  // namespace cms::opt
