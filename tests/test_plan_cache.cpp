// Tests for the memoized plan cache (opt/plan_cache.hpp): PlanKey
// canonicalization and sensitivity, bit-exact entry round trips through
// the .cmsplan format, entries stored without their profile in both
// tiers, every corruption path (and every other format version)
// throwing, the two cache tiers (LRU budgets, pin-during-read,
// cross-instance disk warm hits, vanished-file-means-miss), coexistence
// with a TraceStore over one directory, and a multi-threaded stress
// mirroring TraceStoreStress.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "opt/plan_cache.hpp"
#include "opt/trace_store.hpp"

namespace cms::opt {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the system temp dir, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("cms-plan-cache-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

/// A representative entry: a multi-entry plan, predictions and a folded
/// profile with repeated measurements (non-trivial Welford state), which
/// the cache must drop. `n` makes entries distinguishable per digest.
PlanCacheEntry sample_entry(std::uint64_t n = 0) {
  PlanCacheEntry e;
  for (const std::uint32_t sets : {1u, 4u, 16u}) {
    e.profile.add_sample("vld", sets, 100.0 + static_cast<double>(sets), 5000.0, 1234.0);
    e.profile.add_sample("vld", sets, 101.5 + static_cast<double>(sets), 5100.0, 1234.0);
    e.profile.add_sample("idct", sets, 40.25, 7000.0, 4321.0);
  }
  PlanEntry t;
  t.client = mem::ClientId::task(3);
  t.name = "vld";
  t.is_task = true;
  t.sets = 16;
  t.partition = {32, 16};
  t.expected_misses = 116.75 + static_cast<double>(n);
  e.plan.entries.push_back(t);
  PlanEntry b;
  b.client = mem::ClientId::buffer(7);
  b.name = "fifo0";
  b.kind = kpn::BufferKind::kFifo;
  b.sets = 4;
  b.partition = {48, 4};
  e.plan.entries.push_back(b);
  e.plan.total_sets = 128;
  e.plan.used_sets = 52;
  e.plan.spare = {52, 76};
  e.plan.expected_task_misses = 157.0 + static_cast<double>(n);
  e.plan.feasible = true;
  e.predictions.push_back({"vld", 16, 116.75, 5050.0});
  e.predictions.push_back({"idct", 4, 40.25, 7000.0});
  e.curvature_eps = 0.015625;
  return e;
}

/// Everything a hit serves is bit-identical; the profile is never stored.
void expect_identical(const PlanCacheEntry& a, const PlanCacheEntry& b) {
  EXPECT_TRUE(a.plan.identical(b.plan));
  EXPECT_EQ(a.predictions, b.predictions);
  EXPECT_EQ(a.curvature_eps, b.curvature_eps);
}

/// A cache whose tier 2 is a DirBackend over `tmp`'s store directory; a
/// fresh instance over the same directory models a new process.
PlanCache::Config disk_config(const TempDir& tmp, bool read_only = false) {
  PlanCache::Config cfg;
  cfg.backend =
      std::make_shared<DirBackend>(tmp.file("store"), /*create=*/!read_only);
  cfg.read_only = read_only;
  return cfg;
}

PlanKey sample_key() {
  PlanKey k;
  k.capture_digests = {"digest-b", "digest-a"};
  k.grid = {1, 2, 4, 8};
  k.runs = 2;
  k.l2_size_bytes = 64 * 1024;
  return k;
}

// ---- PlanKey ----

TEST(PlanKey, DeterministicAndOrderCanonical) {
  const PlanKey a = sample_key();
  PlanKey b = sample_key();
  EXPECT_EQ(a.digest(), b.digest());
  // Pinned: a key's bytes survive planner refactors, so cached .cmsplan
  // entries keep answering, and move with kPlanFormatVersion, so no key
  // addresses a blob of another format.
  EXPECT_EQ(a.digest(), "148241d478dc670e84a57771815f9deb");
  // The profile folds by schedule position, not digest order: the same
  // capture SET must address the same plan.
  std::swap(b.capture_digests[0], b.capture_digests[1]);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(PlanKey, EveryKnobChangesTheDigest) {
  const std::string base = sample_key().digest();
  {
    PlanKey k = sample_key();
    k.capture_digests.push_back("digest-c");
    EXPECT_NE(k.digest(), base);
  }
  {
    PlanKey k = sample_key();
    k.grid.push_back(16);
    EXPECT_NE(k.digest(), base);
  }
  {
    PlanKey k = sample_key();
    k.runs = 3;
    EXPECT_NE(k.digest(), base);
  }
  {
    PlanKey k = sample_key();
    k.l2_size_bytes *= 2;
    EXPECT_NE(k.digest(), base);
  }
  {
    PlanKey k = sample_key();
    k.planner.frame_buffer_sets += 1;
    EXPECT_NE(k.digest(), base);
  }
  {
    PlanKey k = sample_key();
    k.planner.segment_sets += 1;
    EXPECT_NE(k.digest(), base);
  }
  {
    PlanKey k = sample_key();
    k.planner.curvature_eps = 0.01;
    EXPECT_NE(k.digest(), base);
  }
  {
    PlanKey k = sample_key();
    k.planner.max_fifo_sets += 1;
    EXPECT_NE(k.digest(), base);
  }
}

TEST(PlanKey, AllAutoEpsSpellingsCollapseToOneKey) {
  // Any negative eps means "auto-tune"; the tuned value is a pure
  // function of the captures + grid already in the key.
  PlanKey a = sample_key();
  a.planner.curvature_eps = PlannerConfig::kAutoCurvatureEps;
  PlanKey b = sample_key();
  b.planner.curvature_eps = -2.5;
  EXPECT_EQ(a.digest(), b.digest());
  PlanKey c = sample_key();
  c.planner.curvature_eps = 0.0;
  EXPECT_NE(a.digest(), c.digest());
}

// ---- Entry format ----

TEST(PlanFormat, EncodeDecodeRoundTripsBitExactly) {
  const PlanCacheEntry original = sample_entry();
  const std::vector<std::uint8_t> bytes =
      encode_plan_entry(original, "plan-key-1");
  std::string digest;
  const PlanCacheEntry decoded =
      decode_plan_entry(bytes.data(), bytes.size(), "<memory>", &digest);
  EXPECT_EQ(digest, "plan-key-1");
  expect_identical(original, decoded);
}

TEST(PlanFormat, EncodingLeavesTheProfileOut) {
  PlanCacheEntry bare = sample_entry();
  bare.profile = MissProfile();
  EXPECT_EQ(encode_plan_entry(sample_entry(), "k"),
            encode_plan_entry(bare, "k"));
}

TEST(PlanFormat, PutDropsTheProfileInBothTiers) {
  TempDir tmp;
  const PlanCacheEntry original = sample_entry(4);
  ASSERT_FALSE(original.profile.identical(MissProfile()));
  PlanCache writer(disk_config(tmp));
  writer.put("k", original);
  const auto mem_hit = writer.get("k");
  ASSERT_NE(mem_hit, nullptr);
  EXPECT_EQ(writer.stats().mem_hits, 1u);
  // A fresh instance over the same directory answers from the disk tier.
  PlanCache reader(disk_config(tmp));
  const auto disk_hit = reader.get("k");
  ASSERT_NE(disk_hit, nullptr);
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  for (const auto& hit : {mem_hit, disk_hit}) {
    EXPECT_TRUE(hit->profile.identical(MissProfile()));
    expect_identical(*hit, original);
  }
}

TEST(PlanFormat, FileRoundTripsAndLeavesNoTempFiles) {
  TempDir tmp;
  const PlanCacheEntry original = sample_entry();
  PlanCache(disk_config(tmp)).put("k", original);
  // A fresh cache starts with a cold memory tier, so the hit decodes the
  // file (and verifies the key embedded in it).
  PlanCache reader(disk_config(tmp));
  const auto loaded = reader.get("k");
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  expect_identical(original, *loaded);
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(tmp.file("store"))) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(PlanFormatFuzz, RandomTruncationsAlwaysThrow) {
  const std::vector<std::uint8_t> bytes =
      encode_plan_entry(sample_entry(), "fuzz-key");
  Rng rng(0x9A7CACE5ull);  // deterministic: any failure reproduces
  for (int i = 0; i < 300; ++i) {
    const auto keep = static_cast<std::size_t>(rng.below(bytes.size()));
    EXPECT_THROW(decode_plan_entry(bytes.data(), keep, "<fuzz-trunc>"),
                 std::runtime_error)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(PlanFormatFuzz, RandomByteMutationsAlwaysThrow) {
  const std::vector<std::uint8_t> original =
      encode_plan_entry(sample_entry(), "fuzz-key");
  Rng rng(0xBADC0DEull);
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> bytes = original;
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(rng.below(bytes.size()));
      bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    if (bytes == original) continue;  // flips cancelled out: not a mutation
    EXPECT_THROW(decode_plan_entry(bytes.data(), bytes.size(), "<fuzz-mut>"),
                 std::runtime_error)
        << "mutation " << i << " decoded silently";
  }
}

TEST(PlanFormatFuzz, AppendedGarbageAndFileCorruptionAlwaysThrow) {
  const std::vector<std::uint8_t> original =
      encode_plan_entry(sample_entry(), "fuzz-key");
  Rng rng(0x5EED5ull);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> bytes = original;
    const auto extra = static_cast<std::size_t>(1 + rng.below(16));
    for (std::size_t e = 0; e < extra; ++e)
      bytes.push_back(static_cast<std::uint8_t>(rng.next_u32()));
    EXPECT_THROW(decode_plan_entry(bytes.data(), bytes.size(), "<fuzz-app>"),
                 std::runtime_error);
  }
  // Same property through the cache's tier-2 files.
  TempDir tmp;
  PlanCache writer(disk_config(tmp));
  const std::string path = writer.path_of("k");
  for (int i = 0; i < 30; ++i) {
    writer.put("k", sample_entry());  // restore pristine
    const auto size = fs::file_size(path);
    if (rng.chance(0.5)) {
      fs::resize_file(path, rng.below(size));  // strictly shorter
    } else {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      const auto pos = static_cast<std::streamoff>(rng.below(size));
      f.seekg(pos);
      const int orig = f.get();
      f.seekp(pos);
      f.put(static_cast<char>(orig ^ static_cast<int>(1 + rng.below(255))));
    }
    // A fresh reader's memory tier is cold: get() decodes the file.
    PlanCache reader(disk_config(tmp));
    EXPECT_THROW(reader.get("k"), std::runtime_error) << "round " << i;
  }
}

TEST(PlanFormat, FutureSchemaVersionThrowsWithPath) {
  TempDir tmp;
  PlanCache(disk_config(tmp)).put("k", sample_entry());
  PlanCache reader(disk_config(tmp));
  const std::string path = reader.path_of("k");
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(8);  // version field sits right after the 8-byte magic
  f.put(99);
  f.close();
  try {
    reader.get("k");
    FAIL() << "expected a version error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

// ---- Memory tier ----

TEST(PlanCacheMemory, MissThenHitServesTheSameEntry) {
  PlanCache cache(PlanCache::Config{});
  EXPECT_EQ(cache.get("k1"), nullptr);
  cache.put("k1", sample_entry());
  const auto hit = cache.get("k1");
  ASSERT_NE(hit, nullptr);
  expect_identical(*hit, sample_entry());
  const PlanCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.mem_hits, 1u);
  EXPECT_EQ(st.inserts, 1u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_GT(st.bytes, 0u);
}

TEST(PlanCacheMemory, LruEvictionUnderEntryBudget) {
  PlanCache::Config cfg;
  cfg.budget.max_entries = 2;
  PlanCache cache(cfg);
  cache.put("a", sample_entry(0));
  cache.put("b", sample_entry(1));
  EXPECT_NE(cache.get("a"), nullptr);  // freshen a
  cache.put("c", sample_entry(2));     // evicts b (LRU), not a
  EXPECT_NE(cache.get("a"), nullptr);
  EXPECT_EQ(cache.get("b"), nullptr);
  EXPECT_NE(cache.get("c"), nullptr);
  const PlanCache::Stats st = cache.stats();
  EXPECT_EQ(st.entries, 2u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_GT(st.evicted_bytes, 0u);
}

TEST(PlanCacheMemory, ByteBudgetEvictsUntilItFits) {
  const std::uint64_t one =
      encode_plan_entry(sample_entry(), "a").size();
  PlanCache::Config cfg;
  cfg.budget.max_bytes = one * 2;  // room for two entries, not three
  PlanCache cache(cfg);
  cache.put("a", sample_entry(0));
  cache.put("b", sample_entry(1));
  cache.put("c", sample_entry(2));
  const PlanCache::Stats st = cache.stats();
  EXPECT_LE(st.bytes, cfg.budget.max_bytes);
  EXPECT_LT(st.entries, 3u);
  EXPECT_EQ(cache.get("a"), nullptr);  // the LRU victim
}

TEST(PlanCacheMemory, EvictionNeverInvalidatesAHeldEntry) {
  // Pin-during-read: a reader's shared_ptr keeps the entry alive across
  // any number of evictions — the cache only drops ITS reference.
  PlanCache::Config cfg;
  cfg.budget.max_entries = 1;
  PlanCache cache(cfg);
  cache.put("a", sample_entry(5));
  const std::shared_ptr<const PlanCacheEntry> held = cache.get("a");
  ASSERT_NE(held, nullptr);
  cache.put("b", sample_entry(6));  // evicts a from the map
  EXPECT_EQ(cache.get("a"), nullptr);
  expect_identical(*held, sample_entry(5));  // still fully usable
}

// ---- Disk tier ----

TEST(PlanCacheDisk, FreshInstanceWarmHitsAcrossProcesses) {
  TempDir tmp;
  {
    PlanCache writer(disk_config(tmp));
    writer.put("k1", sample_entry(9));
    EXPECT_EQ(writer.stats().disk_writes, 1u);
  }
  // A fresh instance over the same directory models a new process: the
  // entry must come off disk and then promote into memory.
  PlanCache reader(disk_config(tmp));
  const auto hit = reader.get("k1");
  ASSERT_NE(hit, nullptr);
  expect_identical(*hit, sample_entry(9));
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().mem_hits, 0u);
  // Promoted: the second lookup is a pure memory hit.
  EXPECT_NE(reader.get("k1"), nullptr);
  EXPECT_EQ(reader.stats().mem_hits, 1u);
}

TEST(PlanCacheDisk, VanishedFileIsAMissNotAnError) {
  TempDir tmp;
  PlanCache writer(disk_config(tmp));
  writer.put("k1", sample_entry());
  PlanCache reader(disk_config(tmp));  // indexes the entry, memory cold
  fs::remove(reader.path_of("k1"));    // another process pruned it
  EXPECT_EQ(reader.get("k1"), nullptr);
  EXPECT_EQ(reader.stats().misses, 1u);
  EXPECT_EQ(reader.stats().disk_entries, 0u);  // index resynced
}

TEST(PlanCacheDisk, RenamedEntryIsRejectedNotServed) {
  TempDir tmp;
  PlanCache writer(disk_config(tmp));
  writer.put("k1", sample_entry());
  fs::rename(writer.path_of("k1"), writer.path_of("k2"));
  PlanCache reader(disk_config(tmp));
  EXPECT_THROW(reader.get("k2"), std::runtime_error);
}

TEST(PlanCacheDisk, CorruptEntryThrowsInsteadOfServing) {
  TempDir tmp;
  PlanCache writer(disk_config(tmp));
  writer.put("k1", sample_entry());
  const std::string path = writer.path_of("k1");
  const auto size = fs::file_size(path);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(size / 2));
  const int orig = f.get();
  f.seekp(static_cast<std::streamoff>(size / 2));
  f.put(static_cast<char>(orig ^ 0x20));
  f.close();
  PlanCache reader(disk_config(tmp));
  EXPECT_THROW(reader.get("k1"), std::runtime_error);
}

TEST(PlanCacheDisk, ReadOnlyNeverWrites) {
  TempDir tmp;
  {
    PlanCache writer(disk_config(tmp));
    writer.put("k1", sample_entry());
  }
  PlanCache ro(disk_config(tmp, /*read_only=*/true));
  ro.put("k2", sample_entry());  // memory tier only
  EXPECT_EQ(ro.stats().disk_writes, 0u);
  EXPECT_FALSE(fs::exists(ro.path_of("k2")));
  EXPECT_NE(ro.get("k1"), nullptr);  // disk reads still work
  EXPECT_NE(ro.get("k2"), nullptr);  // the memory tier still memoizes
}

TEST(PlanCacheDisk, DiskBudgetEvictsLruFiles) {
  TempDir tmp;
  PlanCache::Config cfg = disk_config(tmp);
  cfg.budget.max_entries = 2;
  PlanCache cache(cfg);
  cache.put("a", sample_entry(0));
  cache.put("b", sample_entry(1));
  cache.put("c", sample_entry(2));  // evicts a.cmsplan (oldest)
  EXPECT_FALSE(fs::exists(cache.path_of("a")));
  EXPECT_TRUE(fs::exists(cache.path_of("b")));
  EXPECT_TRUE(fs::exists(cache.path_of("c")));
  EXPECT_EQ(cache.stats().disk_entries, 2u);
  // The budget bounds the memory tier too: "a" is gone from both tiers.
  EXPECT_EQ(cache.get("a"), nullptr);
}

TEST(PlanCacheDisk, ReopenedCacheIndexesExistingEntries) {
  TempDir tmp;
  {
    PlanCache w(disk_config(tmp));
    w.put("a", sample_entry(0));
    w.put("b", sample_entry(1));
    w.put("c", sample_entry(2));
  }
  PlanCache::Config cfg = disk_config(tmp);
  cfg.budget.max_entries = 2;
  PlanCache cache(cfg);
  EXPECT_EQ(cache.stats().disk_entries, 3u);  // indexed, over budget
  const TraceStore::GcResult gr = cache.gc();
  EXPECT_EQ(gr.evicted_entries, 1u);
  EXPECT_EQ(cache.stats().disk_entries, 2u);
}

TEST(PlanCacheDisk, FailedUnlinkKeepsTheEntryAccounted) {
  // Mirrors TraceStoreCapacity.FailedUnlinkKeepsTheEntryAccounted for
  // .cmsplan entries: a tier-2 removal that fails (the entry's path is a
  // NON-EMPTY directory, which unlinks with ENOTEMPTY) keeps the entry
  // indexed and its bytes counted, and eviction falls through to the
  // next candidate.
  TempDir tmp;
  PlanCache::Config cfg = disk_config(tmp);
  cfg.budget.max_entries = 1;
  PlanCache cache(cfg);
  cache.put("a", sample_entry(0));
  const std::uint64_t a_bytes = cache.stats().disk_bytes;

  // Swap a's file for a non-empty directory: the next unlink fails.
  fs::remove(cache.path_of("a"));
  fs::create_directories(fs::path(cache.path_of("a")) / "sub");

  cache.put("b", sample_entry(1));
  // "a" was the LRU victim but could not be unlinked -> kept (and still
  // counted); enforcement fell through to "b", the only other candidate.
  const PlanCache::Stats st = cache.stats();
  EXPECT_EQ(st.disk_entries, 1u);
  EXPECT_EQ(st.disk_bytes, a_bytes);
  EXPECT_EQ(st.disk_evictions, 1u);  // b, not a
  EXPECT_TRUE(fs::exists(cache.path_of("a")));
  EXPECT_FALSE(fs::exists(cache.path_of("b")));
}

TEST(PlanCacheDisk, AlreadyVanishedVictimIsNotCountedAsEvicted) {
  TempDir tmp;
  PlanCache::Config cfg = disk_config(tmp);
  cfg.budget.max_entries = 1;
  PlanCache cache(cfg);
  cache.put("a", sample_entry(0));
  fs::remove(cache.path_of("a"));  // another process pruned it already
  cache.put("b", sample_entry(1));
  // The index entry for "a" is dropped (resynced), but no tier-2
  // eviction — and no freed bytes — are claimed for a file we never
  // removed.
  const PlanCache::Stats st = cache.stats();
  EXPECT_EQ(st.disk_evictions, 0u);
  EXPECT_EQ(st.disk_evicted_bytes, 0u);
  EXPECT_EQ(st.disk_entries, 1u);
  EXPECT_TRUE(fs::exists(cache.path_of("b")));
}

TEST(PlanCacheDisk, CoexistsWithATraceStoreInOneDirectory) {
  // .cmsplan and .cmstrace entries share the store directory without
  // seeing each other: neither index counts the other's artifact type.
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  CaptureRun capture;
  capture.trace.line_bytes = 64;
  store.save("trace-1", capture);

  PlanCache cache(disk_config(tmp));
  cache.put("plan-1", sample_entry());
  EXPECT_EQ(cache.stats().disk_entries, 1u);

  const TraceStore reopened(tmp.file("store"));
  EXPECT_EQ(reopened.stats().entries, 1u);  // only the .cmstrace
  PlanCache cache2(disk_config(tmp));
  EXPECT_EQ(cache2.stats().disk_entries, 1u);  // only the .cmsplan
  EXPECT_NE(cache2.get("plan-1"), nullptr);
  EXPECT_TRUE(reopened.load("trace-1").has_value());
}

// ---- Backend-parameterized tier 2: the disk-tier semantics hold over
// ---- any StoreBackend, not just the historical directory layout ----

enum class BackendKind { kDir, kMem };

const char* to_string(BackendKind k) {
  return k == BackendKind::kDir ? "dir" : "mem";
}

class PlanCacheAnyBackend : public ::testing::TestWithParam<BackendKind> {
 protected:
  /// A handle onto the SAME underlying storage each call — a fresh
  /// DirBackend over one directory, or one shared MemBackend instance —
  /// so a new PlanCache over config() models a process restart.
  std::shared_ptr<StoreBackend> backend() {
    if (GetParam() == BackendKind::kDir)
      return std::make_shared<DirBackend>(tmp_.file("store"));
    if (mem_ == nullptr) mem_ = std::make_shared<MemBackend>();
    return mem_;
  }
  PlanCache::Config config(bool read_only = false) {
    PlanCache::Config cfg;
    cfg.backend = backend();
    cfg.read_only = read_only;
    return cfg;
  }
  bool entry_exists(const std::string& key) {
    return backend()->contains(BlobKind::kPlan, key);
  }

  TempDir tmp_;
  std::shared_ptr<MemBackend> mem_;
};

/// A plan cache file written field by field under schema `version`,
/// sealed with a recomputed trailer: `entries` plan entries and, when
/// that is 0, an empty plan and `predictions` predictions. Nothing
/// follows a nonzero count.
std::vector<std::uint8_t> crafted_plan_entry(
    const std::string& digest, std::uint64_t entries,
    std::uint64_t predictions,
    std::uint32_t version = kPlanFormatVersion) {
  serialize::ByteWriter w;
  for (const char c : kPlanMagic) w.u8(static_cast<std::uint8_t>(c));
  w.fixed32(version);
  w.str(digest);
  w.fixed64(0);  // curvature_eps
  w.varint(entries);
  if (entries == 0) {
    for (int field = 0; field < 4; ++field) w.varint(0);  // set counts
    w.fixed64(0);  // expected_task_misses
    w.u8(0);       // feasible
    w.varint(predictions);
  }
  w.fixed64(serialize::fnv1a64(w.bytes().data(), w.size()));
  return w.take();
}

// A count the payload cannot hold is corruption: std::runtime_error from
// the decoder and from the cache, never std::length_error or
// std::bad_alloc from reserving by it.
TEST_P(PlanCacheAnyBackend, CountsBeyondThePayloadThrow) {
  const auto good = crafted_plan_entry("good", 0, 0);
  EXPECT_NO_THROW(decode_plan_entry(good.data(), good.size(), "good"));
  std::size_t n = 0;
  for (const std::uint64_t count :
       {std::uint64_t{1} << 40, std::uint64_t{1} << 62}) {
    for (const bool in_predictions : {false, true}) {
      const std::string key = "crafted-" + std::to_string(n++);
      const std::vector<std::uint8_t> bytes = crafted_plan_entry(
          key, in_predictions ? 0 : count, in_predictions ? count : 0);
      EXPECT_THROW(decode_plan_entry(bytes.data(), bytes.size(), key),
                   std::runtime_error)
          << key;
      backend()->put(BlobKind::kPlan, key, bytes);
      PlanCache cache(config());
      EXPECT_THROW(cache.get(key), std::runtime_error) << key;
    }
  }
}

// Version 1 blobs (which also held the profile) are no longer read: a
// checksum-valid one throws, naming its version, from the decoder and
// from the cache.
TEST_P(PlanCacheAnyBackend, VersionOneEntryThrowsNamingItsVersion) {
  const std::vector<std::uint8_t> bytes =
      crafted_plan_entry("v1", 0, 0, /*version=*/1);
  const auto expect_version_error = [](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "expected a version error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("schema version 1 "),
                std::string::npos)
          << e.what();
    }
  };
  expect_version_error(
      [&] { decode_plan_entry(bytes.data(), bytes.size(), "v1"); });
  backend()->put(BlobKind::kPlan, "v1", bytes);
  PlanCache cache(config());
  expect_version_error([&] { cache.get("v1"); });
}

TEST_P(PlanCacheAnyBackend, FreshInstanceWarmHitsAcrossRestarts) {
  {
    PlanCache writer(config());
    writer.put("k1", sample_entry(9));
    EXPECT_EQ(writer.stats().disk_writes, 1u);
  }
  PlanCache reader(config());
  const auto hit = reader.get("k1");
  ASSERT_NE(hit, nullptr);
  expect_identical(*hit, sample_entry(9));
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  EXPECT_EQ(reader.stats().mem_hits, 0u);
  // Promoted: the second lookup is a pure memory hit.
  EXPECT_NE(reader.get("k1"), nullptr);
  EXPECT_EQ(reader.stats().mem_hits, 1u);
}

TEST_P(PlanCacheAnyBackend, VanishedEntryIsAMissNotAnError) {
  PlanCache writer(config());
  writer.put("k1", sample_entry());
  PlanCache reader(config());  // indexes the entry, memory cold
  backend()->remove(BlobKind::kPlan, "k1");  // another process pruned it
  EXPECT_EQ(reader.get("k1"), nullptr);
  EXPECT_EQ(reader.stats().misses, 1u);
  EXPECT_EQ(reader.stats().disk_entries, 0u);  // index resynced
}

TEST_P(PlanCacheAnyBackend, CorruptEntryThrowsInsteadOfServing) {
  backend()->put(BlobKind::kPlan, "k1",
                 StoreBackend::Blob{'n', 'o', 't', 'a', 'p', 'l', 'a', 'n'});
  PlanCache reader(config());
  EXPECT_THROW(reader.get("k1"), std::runtime_error);
}

TEST_P(PlanCacheAnyBackend, ReadOnlyNeverWrites) {
  {
    PlanCache writer(config());
    writer.put("k1", sample_entry());
  }
  PlanCache ro(config(/*read_only=*/true));
  ro.put("k2", sample_entry());  // memory tier only
  EXPECT_EQ(ro.stats().disk_writes, 0u);
  EXPECT_FALSE(entry_exists("k2"));
  EXPECT_NE(ro.get("k1"), nullptr);  // tier-2 reads still work
  EXPECT_NE(ro.get("k2"), nullptr);  // the memory tier still memoizes
}

TEST_P(PlanCacheAnyBackend, DiskBudgetEvictsLruEntries) {
  PlanCache::Config cfg = config();
  cfg.budget.max_entries = 2;
  PlanCache cache(cfg);
  cache.put("a", sample_entry(0));
  cache.put("b", sample_entry(1));
  cache.put("c", sample_entry(2));  // evicts a (oldest)
  EXPECT_FALSE(entry_exists("a"));
  EXPECT_TRUE(entry_exists("b"));
  EXPECT_TRUE(entry_exists("c"));
  EXPECT_EQ(cache.stats().disk_entries, 2u);
  // The budget bounds the memory tier too: "a" is gone from both tiers.
  EXPECT_EQ(cache.get("a"), nullptr);
}

TEST_P(PlanCacheAnyBackend, ReopenedCacheIndexesExistingEntries) {
  {
    PlanCache w(config());
    w.put("a", sample_entry(0));
    w.put("b", sample_entry(1));
    w.put("c", sample_entry(2));
  }
  PlanCache::Config cfg = config();
  cfg.budget.max_entries = 2;
  PlanCache cache(cfg);
  EXPECT_EQ(cache.stats().disk_entries, 3u);  // indexed, over budget
  const TraceStore::GcResult gr = cache.gc();
  EXPECT_EQ(gr.evicted_entries, 1u);
  EXPECT_EQ(cache.stats().disk_entries, 2u);
}

TEST_P(PlanCacheAnyBackend, EvictionCountersSplitPerTier) {
  {
    PlanCache writer(config());
    writer.put("a", sample_entry(0));
    writer.put("b", sample_entry(1));
  }
  PlanCache::Config cfg = config();
  cfg.budget.max_entries = 2;
  // A restart: tier 2 indexes a and b, tier 1 starts empty, so the same
  // budget evicts at a different pace per tier.
  PlanCache cache(cfg);
  cache.put("c", sample_entry(2));
  cache.put("d", sample_entry(3));
  cache.put("e", sample_entry(4));
  const PlanCache::Stats st = cache.stats();
  EXPECT_EQ(st.mem_evictions, 1u);   // c: tier 1 holds d, e
  EXPECT_EQ(st.disk_evictions, 3u);  // a, b, c: tier 2 holds d, e
  EXPECT_EQ(st.evictions, st.mem_evictions + st.disk_evictions);
  EXPECT_GT(st.mem_evicted_bytes, 0u);
  EXPECT_GT(st.disk_evicted_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, PlanCacheAnyBackend,
                         ::testing::Values(BackendKind::kDir,
                                           BackendKind::kMem),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---- Tiered tier 2: plans ride the same L1/L2 composition ----

TEST(PlanCacheTiered, FreshL1AnswersFromSharedL2ByReadThrough) {
  const auto shared_l2 = std::make_shared<MemBackend>();
  {
    PlanCache::Config cfg;
    cfg.backend = std::make_shared<TieredBackend>(
        std::make_shared<MemBackend>(), shared_l2);
    PlanCache writer(cfg);
    writer.put("k", sample_entry(3));  // writes through to the far tier
  }
  const auto fresh_l1 = std::make_shared<MemBackend>();
  PlanCache::Config cfg;
  cfg.backend = std::make_shared<TieredBackend>(fresh_l1, shared_l2,
                                                /*l2_writable=*/false);
  PlanCache reader(cfg);
  EXPECT_EQ(reader.stats().disk_entries, 0u);  // empty near-tier index
  const auto hit = reader.get("k");
  ASSERT_NE(hit, nullptr);
  expect_identical(*hit, sample_entry(3));
  const PlanCache::Stats st = reader.stats();
  EXPECT_EQ(st.disk_hits, 1u);
  EXPECT_EQ(st.misses, 0u);
  ASSERT_TRUE(st.tiers.has_value());
  EXPECT_EQ(st.tiers->l2_hits, 1u);
  EXPECT_EQ(st.tiers->promotions, 1u);
  EXPECT_TRUE(fresh_l1->contains(BlobKind::kPlan, "k"));  // promoted
}

// ---- Concurrency stress (mirrors TraceStoreStress) ----

TEST(PlanCacheStress, ConcurrentGetsPutsGcStayConsistent) {
  // 8 threads hammer one disk-backed cache with overlapping keys under a
  // tight budget on both tiers: gets, puts and gc all interleave. The
  // invariants: no call throws, the atomic counters add up exactly
  // (hits + misses == gets, inserts == puts), and every served or
  // surviving entry is bit-identical to its canonical value (eviction
  // may lose entries, never corrupt them).
  TempDir tmp;
  constexpr int kThreads = 8;
  constexpr int kOps = 120;
  constexpr std::uint64_t kKeys = 6;
  PlanCache::Config cfg = disk_config(tmp);
  cfg.budget.max_entries = 3;
  PlanCache cache(cfg);

  const auto key_of = [](std::uint64_t k) {
    return "stress-k" + std::to_string(k);
  };

  std::atomic<std::uint64_t> gets{0}, puts{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      Rng rng(0xCACE5ull + static_cast<std::uint64_t>(t));
      for (int op = 0; op < kOps; ++op) {
        const std::uint64_t k = rng.below(kKeys);
        switch (rng.below(5)) {
          case 0:
          case 1:
            cache.put(key_of(k), sample_entry(k));
            puts.fetch_add(1, std::memory_order_relaxed);
            break;
          case 2:
          case 3: {
            const auto hit = cache.get(key_of(k));
            gets.fetch_add(1, std::memory_order_relaxed);
            if (hit != nullptr) {
              EXPECT_EQ(hit->plan.expected_task_misses,
                        157.0 + static_cast<double>(k))
                  << key_of(k) << " served someone else's plan";
            }
            break;
          }
          case 4:
            cache.gc();
            break;
        }
      }
    });
  for (auto& th : pool) th.join();

  const PlanCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, gets.load());
  EXPECT_EQ(st.inserts, puts.load());
  cache.gc();
  EXPECT_LE(cache.stats().entries, 3u);
  EXPECT_LE(cache.stats().disk_entries, 3u);
  for (std::uint64_t k = 0; k < kKeys; ++k)
    if (const auto hit = cache.get(key_of(k)))
      expect_identical(*hit, sample_entry(k));
}

}  // namespace
}  // namespace cms::opt
