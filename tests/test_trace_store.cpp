// Tests for the trace file format (opt/trace.hpp encode/decode) and the
// content-addressed TraceStore (opt/trace_store.hpp): exact round trips,
// every failure path of the on-disk format as the store reads it
// (truncation, bad magic, another schema version, checksum mismatch, a
// checksum-valid count, dictionary, client or id the encoder cannot have
// written — all std::runtime_error, with the offending path), digest
// keying, and
// warm-starting Experiment profiling from the store.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "opt/replay_kernel.hpp"
#include "opt/trace.hpp"
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
           ("cms-trace-test-" + std::to_string(::getpid()) + "-" +
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

CaptureRun sample_capture() {
  CaptureRun c;
  c.trace.line_bytes = 64;
  ClientTrace t0(mem::ClientId::task(0));
  t0.append(100, AccessType::kRead, false, 0);
  t0.append(101, AccessType::kWrite, false, 0);
  t0.append(90, AccessType::kRead, true, 2);
  ClientTrace b3(mem::ClientId::buffer(3));
  for (std::uint64_t i = 0; i < 200; ++i)
    b3.append(0x4000 + i, AccessType::kWrite, false, 1);
  c.trace.streams.push_back(std::move(t0));
  c.trace.streams.push_back(std::move(b3));
  c.tasks.push_back({0, "producer", 1234, 5000, 700});
  c.tasks.push_back({2, "consumer", 4321, 6000, 800});
  c.scheduler_clients.push_back(mem::ClientId::buffer(9));
  return c;
}

void expect_identical(const CaptureRun& a, const CaptureRun& b) {
  EXPECT_EQ(a.trace.line_bytes, b.trace.line_bytes);
  ASSERT_EQ(a.trace.streams.size(), b.trace.streams.size());
  for (std::size_t i = 0; i < a.trace.streams.size(); ++i) {
    const ClientTrace& sa = a.trace.streams[i];
    const ClientTrace& sb = b.trace.streams[i];
    EXPECT_EQ(sa.client(), sb.client());
    EXPECT_EQ(sa.events(), sb.events());
    EXPECT_EQ(sa.encoded(), sb.encoded());
    // Decoded event streams agree too (not just the raw bytes).
    auto ra = sa.reader(), rb = sb.reader();
    TraceEvent ea, eb;
    while (ra.next(ea)) {
      ASSERT_TRUE(rb.next(eb));
      EXPECT_EQ(ea.line_index, eb.line_index);
      EXPECT_EQ(ea.type, eb.type);
      EXPECT_EQ(ea.l1_writeback, eb.l1_writeback);
      EXPECT_EQ(ea.task, eb.task);
    }
    EXPECT_FALSE(rb.next(eb));
  }
  ASSERT_EQ(a.tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    EXPECT_EQ(a.tasks[i].id, b.tasks[i].id);
    EXPECT_EQ(a.tasks[i].name, b.tasks[i].name);
    EXPECT_EQ(a.tasks[i].instructions, b.tasks[i].instructions);
    EXPECT_EQ(a.tasks[i].compute_cycles, b.tasks[i].compute_cycles);
    EXPECT_EQ(a.tasks[i].mem_cycles, b.tasks[i].mem_cycles);
  }
  EXPECT_EQ(a.scheduler_clients, b.scheduler_clients);
}

/// EXPECT a runtime_error whose message mentions `needle`.
template <typename Fn>
void expect_error_mentioning(Fn&& fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected std::runtime_error mentioning '" << needle << "'";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "message was: " << e.what();
  }
}

TEST(TraceFormat, EncodeDecodeRoundTripsExactly) {
  const CaptureRun original = sample_capture();
  const std::vector<std::uint8_t> bytes =
      encode_capture(original, "digest-123");
  std::string digest;
  const CaptureRun decoded =
      decode_capture(bytes.data(), bytes.size(), "<memory>", &digest);
  EXPECT_EQ(digest, "digest-123");
  expect_identical(original, decoded);
}

TEST(TraceFormat, FileRoundTripsExactly) {
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  const CaptureRun original = sample_capture();
  store.save("abc", original);
  const auto loaded = store.load("abc");  // verifies the embedded digest
  ASSERT_TRUE(loaded.has_value());
  expect_identical(original, *loaded);
  // No temp files left behind.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(tmp.file("store"))) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(TraceFormat, TruncatedFileThrowsWithPath) {
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  store.save("d", sample_capture());
  const std::string path = store.path_of("d");
  const auto full_size = fs::file_size(path);
  // Cut in the middle of the payload AND down to less than a header.
  for (const std::uintmax_t keep : {full_size / 2, std::uintmax_t{5}}) {
    fs::resize_file(path, keep);
    expect_error_mentioning([&] { store.load("d"); }, path);
  }
}

TEST(TraceFormat, BadMagicThrowsWithPath) {
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  store.save("d", sample_capture());
  const std::string path = store.path_of("d");
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.put('X');  // clobber the first magic byte
  f.close();
  expect_error_mentioning([&] { store.load("d"); }, path);
  expect_error_mentioning([&] { store.load("d"); }, "magic");
}

TEST(TraceFormat, FutureSchemaVersionThrowsWithPath) {
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  store.save("d", sample_capture());
  const std::string path = store.path_of("d");
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(8);   // version field sits right after the 8-byte magic
  f.put(99);    // little-endian low byte -> version 99
  f.close();
  // Version is diagnosed BEFORE the checksum: a future format may
  // checksum differently, and "please upgrade" beats "corrupt file".
  expect_error_mentioning([&] { store.load("d"); }, path);
  expect_error_mentioning([&] { store.load("d"); }, "version");
}

// A file of an older format fails as a version problem that names both
// versions, never as a layout read the wrong way.
TEST(TraceFormat, OlderSchemaVersionThrowsNamingBoth) {
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  store.save("d", sample_capture());
  const std::string path = store.path_of("d");
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(8);
  f.put(1);  // version 1
  f.close();
  expect_error_mentioning([&] { store.load("d"); }, path);
  expect_error_mentioning([&] { store.load("d"); }, "version 1 ");
  expect_error_mentioning([&] { store.load("d"); },
                          "(" + std::to_string(kTraceFormatVersion) + ")");
}

TEST(TraceFormat, ChecksumMismatchThrowsWithPath) {
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  store.save("d", sample_capture());
  const std::string path = store.path_of("d");
  const auto size = fs::file_size(path);
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(static_cast<std::streamoff>(size / 2));
  const int orig = f.get();
  f.seekp(static_cast<std::streamoff>(size / 2));
  f.put(static_cast<char>(orig ^ 0x40));  // flip one payload bit
  f.close();
  expect_error_mentioning([&] { store.load("d"); }, path);
  expect_error_mentioning([&] { store.load("d"); }, "checksum");
}

TEST(TraceStore, MissReturnsNulloptAndCounts) {
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  EXPECT_FALSE(store.load("nope").has_value());
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().hits, 0u);
}

TEST(TraceStore, SaveThenLoadRoundTrips) {
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  const CaptureRun original = sample_capture();
  store.save("k1", original);
  EXPECT_EQ(store.stats().writes, 1u);
  const auto loaded = store.load("k1");
  ASSERT_TRUE(loaded.has_value());
  expect_identical(original, *loaded);
  EXPECT_EQ(store.stats().hits, 1u);
}

TEST(TraceStore, DifferentDigestMissesInsteadOfServingStale) {
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  store.save("k1", sample_capture());
  // Any digest change — different jitter seed, tweaked app config —
  // produces a different key and must MISS, not replay the stale trace.
  EXPECT_FALSE(store.load("k2").has_value());
}

TEST(TraceStore, RenamedEntryIsRejectedNotServed) {
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  store.save("k1", sample_capture());
  fs::rename(store.path_of("k1"), store.path_of("k2"));
  // The embedded digest disagrees with the requested key: hard error.
  expect_error_mentioning([&] { store.load("k2"); }, "digest");
}

TEST(TraceStore, ReadOnlyStoreNeverWrites) {
  TempDir tmp;
  {
    const TraceStore rw(tmp.file("store"));
    rw.save("k1", sample_capture());
  }
  const TraceStore ro(tmp.file("store"), /*read_only=*/true);
  ro.save("k2", sample_capture());  // silently skipped
  EXPECT_EQ(ro.stats().writes, 0u);
  EXPECT_FALSE(fs::exists(ro.path_of("k2")));
  EXPECT_TRUE(ro.load("k1").has_value());  // reads still work
}

// ---- Property/fuzz pass: every corruption of a valid blob must throw ----

TEST(TraceFormatFuzz, RandomTruncationsAlwaysThrow) {
  const std::vector<std::uint8_t> bytes =
      encode_capture(sample_capture(), "fuzz-digest");
  Rng rng(0x7121CE5EEDull);  // deterministic: any failure reproduces
  for (int i = 0; i < 300; ++i) {
    const auto keep = static_cast<std::size_t>(rng.below(bytes.size()));
    EXPECT_THROW(decode_capture(bytes.data(), keep, "<fuzz-trunc>"),
                 std::runtime_error)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
}

TEST(TraceFormatFuzz, RandomByteMutationsAlwaysThrow) {
  const std::vector<std::uint8_t> original =
      encode_capture(sample_capture(), "fuzz-digest");
  Rng rng(0xC0FFEEull);
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint8_t> bytes = original;
    const int flips = 1 + static_cast<int>(rng.below(4));
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(rng.below(bytes.size()));
      bytes[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    if (bytes == original) continue;  // flips cancelled out: not a mutation
    EXPECT_THROW(decode_capture(bytes.data(), bytes.size(), "<fuzz-mut>"),
                 std::runtime_error)
        << "mutation " << i << " decoded silently";
  }
}

TEST(TraceFormatFuzz, AppendedGarbageAlwaysThrows) {
  // Growing a file must fail too: the trailer checksum anchors to the end.
  const std::vector<std::uint8_t> original =
      encode_capture(sample_capture(), "fuzz-digest");
  Rng rng(0xD1CEull);
  for (int i = 0; i < 50; ++i) {
    std::vector<std::uint8_t> bytes = original;
    const auto extra = static_cast<std::size_t>(1 + rng.below(16));
    for (std::size_t e = 0; e < extra; ++e)
      bytes.push_back(static_cast<std::uint8_t>(rng.next_u32()));
    EXPECT_THROW(decode_capture(bytes.data(), bytes.size(), "<fuzz-app>"),
                 std::runtime_error);
  }
}

TEST(TraceFormatFuzz, FileTruncationsAndMutationsAlwaysThrow) {
  // Same property through the store's files.
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  const std::string path = store.path_of("d");
  const CaptureRun original = sample_capture();
  Rng rng(0xF17Eull);
  for (int i = 0; i < 30; ++i) {
    store.save("d", original);  // restore pristine
    const auto size = fs::file_size(path);
    if (rng.chance(0.5)) {
      fs::resize_file(path, rng.below(size));  // strictly shorter
    } else {
      std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
      const auto pos = static_cast<std::streamoff>(rng.below(size));
      f.seekg(pos);
      const int orig = f.get();
      f.seekp(pos);
      f.put(static_cast<char>(orig ^
                              static_cast<int>(1 + rng.below(255))));
    }
    EXPECT_THROW(store.load("d"), std::runtime_error) << "round " << i;
  }
}

// ---- Capacity management: LRU eviction, pinning, gc ----

CaptureRun capture_numbered(std::uint64_t n) {
  CaptureRun c = sample_capture();
  c.tasks[0].instructions = 1000 + n;  // distinguishable per digest
  return c;
}

TEST(TraceStoreCapacity, EvictsLeastRecentlyUsedAboveEntryBudget) {
  TempDir tmp;
  TraceStore::Capacity cap;
  cap.max_entries = 2;
  const TraceStore store(tmp.file("store"), false, cap);
  store.save("a", capture_numbered(0));
  store.save("b", capture_numbered(1));
  store.save("c", capture_numbered(2));  // evicts a (oldest)
  EXPECT_FALSE(fs::exists(store.path_of("a")));
  EXPECT_TRUE(store.load("b").has_value());  // touches b
  store.save("d", capture_numbered(3));      // evicts c, NOT the fresher b
  EXPECT_FALSE(fs::exists(store.path_of("c")));
  EXPECT_TRUE(store.load("b").has_value());
  EXPECT_TRUE(store.load("d").has_value());
  const auto st = store.stats();
  EXPECT_EQ(st.evictions, 2u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_GT(st.evicted_bytes, 0u);
}

TEST(TraceStoreCapacity, ByteBudgetEvictsUntilItFits) {
  TempDir tmp;
  const std::uint64_t one_entry = [&] {
    const TraceStore probe(tmp.file("probe"));
    probe.save("x", capture_numbered(0));
    return probe.stats().bytes;
  }();
  TraceStore::Capacity cap;
  cap.max_bytes = one_entry * 2;  // room for two entries, not three
  const TraceStore store(tmp.file("store"), false, cap);
  store.save("a", capture_numbered(0));
  store.save("b", capture_numbered(1));
  store.save("c", capture_numbered(2));
  const auto st = store.stats();
  EXPECT_LE(st.bytes, cap.max_bytes);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_FALSE(fs::exists(store.path_of("a")));
}

TEST(TraceStoreCapacity, PinnedEntriesAreNeverEvicted) {
  TempDir tmp;
  TraceStore::Capacity cap;
  cap.max_entries = 1;
  const TraceStore store(tmp.file("store"), false, cap);
  {
    const TraceStore::Pin pin = store.pin("a");  // pin BEFORE the save
    EXPECT_EQ(store.stats().pinned, 1u);
    store.save("a", capture_numbered(0));
    // "a" is the LRU entry and the over-budget save would normally evict
    // it — but it is pinned, so the enforcement falls through to the only
    // unpinned candidate: the entry just written.
    store.save("b", capture_numbered(1));
    EXPECT_TRUE(fs::exists(store.path_of("a")));
    EXPECT_FALSE(fs::exists(store.path_of("b")));
    EXPECT_TRUE(store.load("a").has_value());  // intact, not corrupted
  }
  EXPECT_EQ(store.stats().pinned, 0u);
  // Unpinned now: the next over-budget save claims it as LRU victim.
  store.save("c", capture_numbered(2));
  EXPECT_FALSE(fs::exists(store.path_of("a")));
  EXPECT_TRUE(fs::exists(store.path_of("c")));
}

TEST(TraceStoreCapacity, ReopenedStoreIndexesExistingEntriesOldestFirst) {
  TempDir tmp;
  {
    const TraceStore w(tmp.file("store"));
    w.save("a", capture_numbered(0));
    w.save("b", capture_numbered(1));
    w.save("c", capture_numbered(2));
  }
  TraceStore::Capacity cap;
  cap.max_entries = 2;
  const TraceStore store(tmp.file("store"), false, cap);
  EXPECT_EQ(store.stats().entries, 3u);  // indexed, over budget until gc
  const auto gr = store.gc();
  EXPECT_EQ(gr.evicted_entries, 1u);
  EXPECT_EQ(store.stats().entries, 2u);
}

TEST(TraceStoreCapacity, VanishedEntryIsAMissNotAnError) {
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  store.save("a", capture_numbered(0));
  fs::remove(store.path_of("a"));  // another process evicted it
  EXPECT_FALSE(store.load("a").has_value());
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().entries, 0u);  // index resynced
  EXPECT_FALSE(store.contains("a"));
}

TEST(TraceStoreCapacity, UnknownEntrySizeIsReStattedNotFrozen) {
  // An entry whose stat fails at index time (here: a directory wearing an
  // entry's name — exists() true, file_size() error, the same shape as a
  // peer eviction racing the stat) must not freeze the byte accounting
  // at 0: once the file becomes stat-able, gc() re-stats it and
  // stats().bytes converges to the on-disk truth.
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  store.save("a", capture_numbered(0));
  const std::uint64_t a_bytes = store.stats().bytes;
  ASSERT_GT(a_bytes, 0u);

  fs::create_directory(store.path_of("ghost"));
  EXPECT_TRUE(store.contains("ghost"));  // indexed with unknown size
  EXPECT_EQ(store.stats().entries, 2u);
  EXPECT_EQ(store.stats().bytes, a_bytes);  // unknown contributes nothing

  // The path becomes a real entry (what a racing writer's rename does),
  // written behind the store's index so only the re-stat can learn it.
  fs::remove(store.path_of("ghost"));
  store.backend()->put(BlobKind::kTrace, "ghost",
                       encode_capture(capture_numbered(7), "ghost"));
  store.gc();  // re-stats unknown-size entries before any budget decision
  EXPECT_EQ(store.stats().bytes,
            a_bytes + fs::file_size(store.path_of("ghost")));
}

TEST(TraceStoreCapacity, UnknownSizeOfVanishedEntryIsDropped) {
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  fs::create_directory(store.path_of("ghost"));
  EXPECT_TRUE(store.contains("ghost"));
  fs::remove(store.path_of("ghost"));  // gone before it could be statted
  store.gc();
  EXPECT_EQ(store.stats().entries, 0u);
  EXPECT_EQ(store.stats().bytes, 0u);
}

TEST(TraceStoreCapacity, FailedUnlinkKeepsTheEntryAccounted) {
  // fs::remove failing (here: the entry's path is a NON-EMPTY directory,
  // which unlinks with ENOTEMPTY) must not drop the index entry: the
  // bytes are still on disk, and evicted_bytes must not claim bytes that
  // were never freed. Enforcement skips the victim and falls through to
  // the next candidate instead.
  TempDir tmp;
  TraceStore::Capacity cap;
  cap.max_entries = 1;
  const TraceStore store(tmp.file("store"), false, cap);
  store.save("a", capture_numbered(0));
  const std::uint64_t a_bytes = store.stats().bytes;

  // Swap a's file for a non-empty directory: the next unlink fails.
  fs::remove(store.path_of("a"));
  fs::create_directories(fs::path(store.path_of("a")) / "sub");

  store.save("b", capture_numbered(1));
  // "a" was the LRU victim but could not be unlinked -> kept (and still
  // counted); enforcement fell through to "b", the only other candidate.
  const auto st = store.stats();
  EXPECT_EQ(st.entries, 1u);
  EXPECT_EQ(st.bytes, a_bytes);
  EXPECT_EQ(st.evictions, 1u);  // b, not a
  EXPECT_TRUE(fs::exists(store.path_of("a")));
  EXPECT_FALSE(fs::exists(store.path_of("b")));
}

TEST(TraceStoreCapacity, AlreadyVanishedVictimIsNotCountedAsEvicted) {
  TempDir tmp;
  TraceStore::Capacity cap;
  cap.max_entries = 1;
  const TraceStore store(tmp.file("store"), false, cap);
  store.save("a", capture_numbered(0));
  fs::remove(store.path_of("a"));  // another process evicted it already
  store.save("b", capture_numbered(1));
  // The index entry for "a" is dropped (resynced), but no eviction — and
  // no freed bytes — are claimed for a file we never removed.
  const auto st = store.stats();
  EXPECT_EQ(st.evictions, 0u);
  EXPECT_EQ(st.evicted_bytes, 0u);
  EXPECT_EQ(st.entries, 1u);
  EXPECT_TRUE(fs::exists(store.path_of("b")));
}

TEST(TraceStoreCapacity, ContainsProbesWithoutCountingHits) {
  TempDir tmp;
  const TraceStore store(tmp.file("store"));
  EXPECT_FALSE(store.contains("a"));
  store.save("a", capture_numbered(0));
  EXPECT_TRUE(store.contains("a"));
  EXPECT_EQ(store.stats().hits, 0u);
  EXPECT_EQ(store.stats().misses, 0u);
}

// ---- Concurrency stress: N threads on one rw store dir ----

TEST(TraceStoreStress, ConcurrentReadersWritersEvictorsStayConsistent) {
  // 8 threads hammer one read-write store with overlapping digests under
  // a tight entry budget: saves, verified loads, probes, pins and gc all
  // interleave. The invariants: no call throws, the atomic counters add
  // up exactly, and every surviving entry decodes bit-identically to its
  // canonical capture (eviction may lose entries, never corrupt them).
  TempDir tmp;
  constexpr int kThreads = 8;
  constexpr int kOps = 150;
  constexpr std::uint64_t kDigests = 6;
  TraceStore::Capacity cap;
  cap.max_entries = 4;
  const TraceStore store(tmp.file("store"), false, cap);

  std::vector<CaptureRun> canonical;
  for (std::uint64_t d = 0; d < kDigests; ++d)
    canonical.push_back(capture_numbered(d));
  const auto digest_of = [](std::uint64_t d) {
    return "stress-k" + std::to_string(d);
  };

  std::atomic<std::uint64_t> loads{0}, saves{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      Rng rng(0x57E55ull + static_cast<std::uint64_t>(t));
      for (int op = 0; op < kOps; ++op) {
        const std::uint64_t d = rng.below(kDigests);
        const std::string digest = digest_of(d);
        switch (rng.below(6)) {
          case 0:
          case 1:
            store.save(digest, canonical[d]);
            saves.fetch_add(1, std::memory_order_relaxed);
            break;
          case 2:
          case 3: {
            // Pin across the load like the planning service does.
            const TraceStore::Pin pin = store.pin(digest);
            const auto hit = store.load(digest);
            loads.fetch_add(1, std::memory_order_relaxed);
            if (hit) {
              EXPECT_EQ(hit->tasks[0].instructions, 1000 + d)
                  << "digest " << digest << " served someone else's capture";
            }
            break;
          }
          case 4:
            store.contains(digest);
            break;
          case 5:
            store.gc();
            break;
        }
      }
    });
  for (auto& th : pool) th.join();

  const TraceStore::Stats st = store.stats();
  EXPECT_EQ(st.writes, saves.load());
  EXPECT_EQ(st.hits + st.misses, loads.load());
  EXPECT_EQ(st.pinned, 0u);
  store.gc();
  EXPECT_LE(store.stats().entries, 4u);
  for (std::uint64_t d = 0; d < kDigests; ++d)
    if (const auto hit = store.load(digest_of(d)))
      expect_identical(canonical[d], *hit);

  // Post-hoc size audit: at quiescence (no concurrent instance, gc run,
  // any stat that failed mid-race re-statted) the byte accounting must
  // equal the on-disk truth exactly — the invariant the unknown-size
  // re-stat exists to restore.
  store.gc();
  std::uint64_t disk_bytes = 0, disk_entries = 0;
  for (const auto& e : fs::directory_iterator(tmp.file("store"))) {
    if (e.path().extension() != ".cmstrace") continue;
    disk_bytes += static_cast<std::uint64_t>(e.file_size());
    ++disk_entries;
  }
  EXPECT_EQ(store.stats().entries, disk_entries);
  EXPECT_EQ(store.stats().bytes, disk_bytes);
}

// ---- Backend-parameterized suite: the store semantics hold over any
// ---- StoreBackend, not just the historical directory layout ----

enum class BackendKind { kDir, kMem };

const char* to_string(BackendKind k) {
  return k == BackendKind::kDir ? "dir" : "mem";
}

class TraceStoreAnyBackend : public ::testing::TestWithParam<BackendKind> {
 protected:
  /// A handle onto the SAME underlying storage each call — a fresh
  /// DirBackend over one directory, or one shared MemBackend instance —
  /// so constructing a new TraceStore over backend() models a process
  /// reopening its store.
  std::shared_ptr<StoreBackend> backend() {
    if (GetParam() == BackendKind::kDir)
      return std::make_shared<DirBackend>(tmp_.file("store"));
    if (mem_ == nullptr) mem_ = std::make_shared<MemBackend>();
    return mem_;
  }

  bool entry_exists(const std::string& digest) {
    return backend()->contains(BlobKind::kTrace, digest);
  }
  void vanish_entry(const std::string& digest) {
    backend()->remove(BlobKind::kTrace, digest);
  }

  TempDir tmp_;
  std::shared_ptr<MemBackend> mem_;
};

TEST_P(TraceStoreAnyBackend, SaveThenLoadRoundTrips) {
  const TraceStore store(backend());
  const CaptureRun original = sample_capture();
  store.save("k1", original);
  const auto loaded = store.load("k1");
  ASSERT_TRUE(loaded.has_value());
  expect_identical(original, *loaded);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().writes, 1u);
  EXPECT_FALSE(store.load("other").has_value());
  EXPECT_EQ(store.stats().misses, 1u);
}

TEST_P(TraceStoreAnyBackend, CorruptEntryThrowsInsteadOfServing) {
  const TraceStore store(backend());
  backend()->put(BlobKind::kTrace, "bad",
                 StoreBackend::Blob{'n', 'o', 't', 'a', 't', 'r', 'a', 'c',
                                    'e'});
  expect_error_mentioning([&] { store.load("bad"); }, "bad");
}

/// A capture file whose counts `fill` writes by hand after the header,
/// digest and line size, sealed with a recomputed trailer. The checksum
/// is easy to recompute, so a checksum-valid file can still claim any
/// count, id or line size.
std::vector<std::uint8_t> crafted_capture(
    const std::string& digest,
    const std::function<void(serialize::ByteWriter&)>& fill,
    std::uint64_t line_bytes = 64) {
  serialize::ByteWriter w;
  for (const char c : kTraceMagic) w.u8(static_cast<std::uint8_t>(c));
  w.fixed32(kTraceFormatVersion);
  w.str(digest);
  w.varint(line_bytes);
  fill(w);
  w.fixed64(serialize::fnv1a64_words(w.bytes().data(), w.size()));
  return w.take();
}

/// One stream of task 0 with `events` events in `nbytes` bytes (each 0:
/// line id 0, a read) over the dictionary `lines`, after empty
/// scheduler-client and task tables.
void one_stream(serialize::ByteWriter& w, std::uint64_t events,
                std::uint64_t nbytes,
                const std::vector<std::uint64_t>& lines = {0}) {
  w.varint(0);  // scheduler clients
  w.varint(0);  // tasks
  w.varint(1);  // streams
  w.u8(static_cast<std::uint8_t>(mem::ClientId::task(0).kind));
  w.svarint(0);
  w.varint(events);
  w.varint(lines.size());
  std::uint64_t prev = 0;
  for (const std::uint64_t line : lines) {
    w.svarint(static_cast<std::int64_t>(line - prev));
    prev = line;
  }
  w.varint(nbytes);
  for (std::uint64_t i = 0; i < nbytes; ++i) w.u8(0);
}

/// Replay every stream of `c` at one grid point of 2 sets per client.
void replay_all(const CaptureRun& c) {
  auto plan = std::make_shared<PartitionPlan>();
  plan->total_sets = 64;
  for (const ClientTrace& s : c.trace.streams) {
    PlanEntry e;
    e.client = s.client();
    e.name = s.client().to_string();
    e.partition = {0, 2};
    plan->entries.push_back(std::move(e));
  }
  MultiReplay mr(c, {{plan, 2, 0}}, mem::CacheConfig(), 1);
  for (std::size_t s = 0; s < mr.num_streams(); ++s) mr.replay_stream(s);
}

// A count the payload cannot hold is corruption: std::runtime_error from
// the decoder and from the store, never std::length_error or
// std::bad_alloc from reserving by it, and never a stream that fails
// only later, mid-replay.
TEST_P(TraceStoreAnyBackend, CountsBeyondThePayloadThrow) {
  constexpr std::uint64_t k40 = std::uint64_t{1} << 40;
  constexpr std::uint64_t k62 = std::uint64_t{1} << 62;
  const std::vector<std::function<void(serialize::ByteWriter&)>> bad = {
      [&](serialize::ByteWriter& w) { w.varint(0); w.varint(k62); },
      [&](serialize::ByteWriter& w) { w.varint(0); w.varint(k40); },
      [&](serialize::ByteWriter& w) { w.varint(k40); },
      [&](serialize::ByteWriter& w) {
        w.varint(0);
        w.varint(0);
        w.varint(k40);
      },
      [&](serialize::ByteWriter& w) { one_stream(w, k40, 16); },
  };
  const TraceStore store(backend());
  // The same layout with counts it can hold decodes and replays.
  const auto good = crafted_capture(
      "good", [](serialize::ByteWriter& w) { one_stream(w, 16, 16); });
  const CaptureRun decoded = decode_capture(good.data(), good.size(), "good");
  EXPECT_EQ(decoded.trace.total_events(), 16u);
  EXPECT_NO_THROW(replay_all(decoded));
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const std::string digest = "crafted-" + std::to_string(i);
    const std::vector<std::uint8_t> bytes = crafted_capture(digest, bad[i]);
    EXPECT_THROW(decode_capture(bytes.data(), bytes.size(), digest),
                 std::runtime_error)
        << digest;
    backend()->put(BlobKind::kTrace, digest, bytes);
    EXPECT_THROW(store.load(digest), std::runtime_error) << digest;
  }
}

// encode_capture writes a recorder's nonzero 32-bit line size. A line
// size of 0, or one that a 32-bit field would truncate to 64, is
// corruption too.
TEST_P(TraceStoreAnyBackend, LineSizesTheEncoderCannotWriteThrow) {
  const TraceStore store(backend());
  for (const std::uint64_t line_bytes :
       {std::uint64_t{0}, (std::uint64_t{1} << 32) + 64}) {
    const std::string digest = "line-" + std::to_string(line_bytes);
    const std::vector<std::uint8_t> bytes = crafted_capture(
        digest, [](serialize::ByteWriter& w) { one_stream(w, 16, 16); },
        line_bytes);
    EXPECT_THROW(decode_capture(bytes.data(), bytes.size(), digest),
                 std::runtime_error)
        << digest;
    backend()->put(BlobKind::kTrace, digest, bytes);
    EXPECT_THROW(store.load(digest), std::runtime_error) << digest;
  }
}

/// Put `bytes` under `digest` and expect std::runtime_error from both
/// decode_capture and the store's load.
void expect_undecodable(StoreBackend& backend, const TraceStore& store,
                        const std::string& digest,
                        const std::vector<std::uint8_t>& bytes) {
  EXPECT_THROW(decode_capture(bytes.data(), bytes.size(), digest),
               std::runtime_error)
      << digest;
  backend.put(BlobKind::kTrace, digest, bytes);
  EXPECT_THROW(store.load(digest), std::runtime_error) << digest;
}

// A client kind other than none, task or buffer, and a client or task id
// outside 32 bits, cannot come from the encoder: the decoder rejects them
// instead of handing a replay a client it cannot plan.
TEST_P(TraceStoreAnyBackend, ClientKindsAndIdsTheEncoderCannotWriteThrow) {
  constexpr std::int64_t k31 = std::int64_t{1} << 31;
  const auto stream_of = [](std::uint8_t kind, std::int64_t id) {
    return [=](serialize::ByteWriter& w) {
      w.varint(0);  // scheduler clients
      w.varint(0);  // tasks
      w.varint(1);  // streams
      w.u8(kind);
      w.svarint(id);
      w.varint(1);  // events
      w.varint(1);  // lines
      w.svarint(0);
      w.varint(1);  // event bytes
      w.u8(0);
    };
  };
  const std::vector<std::function<void(serialize::ByteWriter&)>> bad = {
      stream_of(3, 0),
      stream_of(7, 0),
      stream_of(1, k31),
      stream_of(2, -k31 - 1),
      [](serialize::ByteWriter& w) {  // scheduler client of kind 7
        w.varint(1);
        w.u8(7);
        w.svarint(0);
        w.varint(0);
        w.varint(0);
      },
      [&](serialize::ByteWriter& w) {  // task id 2^31
        w.varint(0);
        w.varint(1);
        w.svarint(k31);
        w.str("t");
        w.varint(1);
        w.varint(1);
        w.varint(1);
        w.varint(0);
      },
  };
  const TraceStore store(backend());
  // The extremes the encoder can write decode.
  for (const auto& fill : {stream_of(0, -k31), stream_of(2, k31 - 1)}) {
    const auto good = crafted_capture("good", fill);
    EXPECT_NO_THROW(decode_capture(good.data(), good.size(), "good"));
  }
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const std::string digest = "client-" + std::to_string(i);
    expect_undecodable(*backend(), store, digest,
                       crafted_capture(digest, bad[i]));
  }
}

// A stream's dictionary must hold what the encoder writes: at most one
// line per event, each line once, within the payload.
TEST_P(TraceStoreAnyBackend, MalformedDictionariesThrow) {
  const std::vector<std::function<void(serialize::ByteWriter&)>> bad = {
      [](serialize::ByteWriter& w) {  // a line count beyond the payload
        w.varint(0);
        w.varint(0);
        w.varint(1);
        w.u8(static_cast<std::uint8_t>(mem::ClientKind::kTask));
        w.svarint(0);
        w.varint(std::uint64_t{1} << 40);
        w.varint(std::uint64_t{1} << 40);
      },
      [](serialize::ByteWriter& w) { one_stream(w, 2, 2, {0, 1, 2}); },
      [](serialize::ByteWriter& w) { one_stream(w, 4, 4, {5, 9, 5}); },
      [](serialize::ByteWriter& w) { one_stream(w, 4, 4, {9, 9}); },
  };
  const TraceStore store(backend());
  const auto good = crafted_capture("good", [](serialize::ByteWriter& w) {
    one_stream(w, 3, 3, {5, 9, 1});
  });
  EXPECT_EQ(decode_capture(good.data(), good.size(), "good")
                .trace.streams[0]
                .lines(),
            (std::vector<std::uint64_t>{5, 9, 1}));
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const std::string digest = "dictionary-" + std::to_string(i);
    expect_undecodable(*backend(), store, digest,
                       crafted_capture(digest, bad[i]));
  }
}

// Events are checked as they are read: a line id beyond the dictionary or
// an issuer beyond 32 bits decodes and loads, then throws
// std::runtime_error from the replay.
TEST_P(TraceStoreAnyBackend, EventsTheEncoderCannotWriteThrowOnReplay) {
  const auto stream_with = [](std::vector<std::uint64_t> event_varints) {
    return [=](serialize::ByteWriter& w) {
      w.varint(0);
      w.varint(0);
      w.varint(1);
      w.u8(static_cast<std::uint8_t>(mem::ClientKind::kTask));
      w.svarint(0);
      w.varint(1);  // events
      w.varint(1);  // lines
      w.svarint(40);
      serialize::ByteWriter events;
      for (const std::uint64_t v : event_varints) events.varint(v);
      w.varint(events.size());
      w.raw(events.bytes().data(), events.size());
    };
  };
  const TraceStore store(backend());
  const auto good = crafted_capture(
      "good", stream_with({0 << 3 | 4, std::uint64_t{0xFFFFFFFF}}));
  EXPECT_NO_THROW(
      replay_all(decode_capture(good.data(), good.size(), "good")));
  const std::vector<std::vector<std::uint64_t>> bad = {
      {1 << 3}, {0 << 3 | 4, std::uint64_t{1} << 32}};
  for (std::size_t i = 0; i < bad.size(); ++i) {
    const std::string digest = "event-" + std::to_string(i);
    const std::vector<std::uint8_t> bytes =
        crafted_capture(digest, stream_with(bad[i]));
    const CaptureRun decoded =
        decode_capture(bytes.data(), bytes.size(), digest);
    EXPECT_THROW(replay_all(decoded), std::runtime_error) << digest;
    backend()->put(BlobKind::kTrace, digest, bytes);
    const std::optional<CaptureRun> loaded = store.load(digest);
    ASSERT_TRUE(loaded.has_value()) << digest;
    EXPECT_THROW(replay_all(*loaded), std::runtime_error) << digest;
  }
}

TEST_P(TraceStoreAnyBackend, MislabeledEntryIsRejected) {
  const TraceStore store(backend());
  // A valid blob stored under the WRONG digest (a hand-copied entry).
  backend()->put(BlobKind::kTrace, "wrong-key",
                 encode_capture(sample_capture(), "actual-digest"));
  expect_error_mentioning([&] { store.load("wrong-key"); }, "digest");
}

TEST_P(TraceStoreAnyBackend, VanishedEntryIsAMissNotAnError) {
  const TraceStore store(backend());
  store.save("a", capture_numbered(0));
  vanish_entry("a");  // another process evicted it
  EXPECT_FALSE(store.load("a").has_value());
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().entries, 0u);  // index resynced
  EXPECT_FALSE(store.contains("a"));
}

TEST_P(TraceStoreAnyBackend, LruEvictionAboveEntryBudget) {
  TraceStore::Capacity cap;
  cap.max_entries = 2;
  const TraceStore store(backend(), false, cap);
  store.save("a", capture_numbered(0));
  store.save("b", capture_numbered(1));
  store.save("c", capture_numbered(2));  // evicts a (oldest)
  EXPECT_FALSE(entry_exists("a"));
  EXPECT_TRUE(store.load("b").has_value());  // touches b
  store.save("d", capture_numbered(3));      // evicts c, NOT the fresher b
  EXPECT_FALSE(entry_exists("c"));
  EXPECT_TRUE(store.load("b").has_value());
  EXPECT_TRUE(store.load("d").has_value());
  const auto st = store.stats();
  EXPECT_EQ(st.evictions, 2u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_GT(st.evicted_bytes, 0u);
}

TEST_P(TraceStoreAnyBackend, PinnedEntriesAreNeverEvicted) {
  TraceStore::Capacity cap;
  cap.max_entries = 1;
  const TraceStore store(backend(), false, cap);
  {
    const TraceStore::Pin pin = store.pin("a");
    store.save("a", capture_numbered(0));
    store.save("b", capture_numbered(1));  // falls through to evicting b
    EXPECT_TRUE(entry_exists("a"));
    EXPECT_FALSE(entry_exists("b"));
  }
  store.save("c", capture_numbered(2));  // unpinned now: a is the victim
  EXPECT_FALSE(entry_exists("a"));
  EXPECT_TRUE(entry_exists("c"));
}

TEST_P(TraceStoreAnyBackend, ReopenIndexesExistingEntriesOldestFirst) {
  {
    const TraceStore w(backend());
    w.save("a", capture_numbered(0));
    w.save("b", capture_numbered(1));
    w.save("c", capture_numbered(2));
  }
  TraceStore::Capacity cap;
  cap.max_entries = 2;
  const TraceStore store(backend(), false, cap);
  EXPECT_EQ(store.stats().entries, 3u);  // indexed, over budget until gc
  const auto gr = store.gc();
  EXPECT_EQ(gr.evicted_entries, 1u);
  EXPECT_EQ(store.stats().entries, 2u);
}

TEST_P(TraceStoreAnyBackend, ReadOnlyStoreNeverWrites) {
  {
    const TraceStore rw(backend());
    rw.save("k1", sample_capture());
  }
  const TraceStore ro(backend(), /*read_only=*/true);
  ro.save("k2", sample_capture());  // silently skipped
  EXPECT_EQ(ro.stats().writes, 0u);
  EXPECT_FALSE(entry_exists("k2"));
  EXPECT_TRUE(ro.load("k1").has_value());  // reads still work
}

TEST_P(TraceStoreAnyBackend, ContainsProbesWithoutCountingHits) {
  const TraceStore store(backend());
  EXPECT_FALSE(store.contains("a"));
  store.save("a", capture_numbered(0));
  EXPECT_TRUE(store.contains("a"));
  EXPECT_EQ(store.stats().hits, 0u);
  EXPECT_EQ(store.stats().misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, TraceStoreAnyBackend,
                         ::testing::Values(BackendKind::kDir,
                                           BackendKind::kMem),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---- Reopen determinism: mtime ties break by digest ----

TEST(TraceStoreCapacity, ReopenEvictionOrderIsDeterministicUnderMtimeTies) {
  // Entries written within one filesystem-timestamp quantum used to be
  // indexed in directory-iteration order, making which entry a budgeted
  // reopen evicts first nondeterministic across runs. The backend breaks
  // mtime ties by digest, so with all three mtimes forced equal the
  // eviction order must be digest-ascending: a, then b; c survives.
  TempDir tmp;
  {
    const TraceStore w(tmp.file("store"));
    w.save("c", capture_numbered(2));
    w.save("a", capture_numbered(0));
    w.save("b", capture_numbered(1));
  }
  {
    const DirBackend probe(tmp.file("store"));
    const auto stamp =
        fs::last_write_time(probe.path_of(BlobKind::kTrace, "a"));
    for (const char* d : {"a", "b", "c"})
      fs::last_write_time(probe.path_of(BlobKind::kTrace, d), stamp);
  }
  TraceStore::Capacity cap;
  cap.max_entries = 1;
  const TraceStore store(tmp.file("store"), false, cap);
  const auto gr = store.gc();
  EXPECT_EQ(gr.evicted_entries, 2u);
  EXPECT_FALSE(fs::exists(store.path_of("a")));
  EXPECT_FALSE(fs::exists(store.path_of("b")));
  EXPECT_TRUE(fs::exists(store.path_of("c")));
}

// ---- Tiered store: read-through, degradation, corruption ----

TEST(TraceStoreTiered, L1EvictionDegradesToL2ReadThrough) {
  // A tight local budget evicts from L1 only; the evicted capture is
  // still one read-through away in the shared far tier.
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<MemBackend>();
  TraceStore::Capacity cap;
  cap.max_entries = 1;
  const TraceStore store(std::make_shared<TieredBackend>(l1, l2), false,
                         cap);
  store.save("a", capture_numbered(0));
  store.save("b", capture_numbered(1));  // evicts a from L1 only
  EXPECT_FALSE(l1->contains(BlobKind::kTrace, "a"));
  EXPECT_TRUE(l2->contains(BlobKind::kTrace, "a"));
  const auto hit = store.load("a");  // read-through + promote
  ASSERT_TRUE(hit.has_value());
  expect_identical(capture_numbered(0), *hit);
  ASSERT_TRUE(store.stats().tiers.has_value());
  EXPECT_GE(store.stats().tiers->l2_hits, 1u);
  EXPECT_GE(store.stats().tiers->promotions, 1u);
}

TEST(TraceStoreTiered, EvictedEntryAbsentFromL2IsAMissToRecapture) {
  // With a read-only (unwritten) far tier, an L1 eviction really loses
  // the entry: the next load is a MISS and the caller re-captures —
  // never an error.
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<MemBackend>();
  TraceStore::Capacity cap;
  cap.max_entries = 1;
  const TraceStore store(
      std::make_shared<TieredBackend>(l1, l2, /*l2_writable=*/false), false,
      cap);
  store.save("a", capture_numbered(0));
  store.save("b", capture_numbered(1));  // evicts a; L2 never had it
  EXPECT_FALSE(store.load("a").has_value());
  EXPECT_EQ(store.stats().misses, 1u);
  store.save("a", capture_numbered(0));  // the re-capture
  EXPECT_TRUE(store.load("a").has_value());
}

TEST(TraceStoreTiered, CorruptL2EntryThrowsOnLoad) {
  // Corruption in the far tier is surfaced exactly like local
  // corruption: the read-through bytes fail to decode while the entry
  // remains present, which is a hard error — never a silent re-capture.
  TempDir tmp;
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<DirBackend>(tmp.file("far"));
  l2->put(BlobKind::kTrace, "bad",
          StoreBackend::Blob{'g', 'a', 'r', 'b', 'a', 'g', 'e'});
  const TraceStore store(std::make_shared<TieredBackend>(l1, l2));
  expect_error_mentioning([&] { store.load("bad"); }, "bad");
}

TEST(TraceStoreTiered, L2DirRemovedMidRunDegradesToL1Only) {
  // The far directory disappearing out from under a running store (an
  // unmounted share, a cleaned-up CI artifact) must not fail a single
  // store call: write-throughs degrade with a warning, reads are served
  // from L1, and the degradations are visible in l2_errors.
  TempDir tmp;
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<DirBackend>(tmp.file("far"));
  const TraceStore store(std::make_shared<TieredBackend>(l1, l2));
  store.save("a", capture_numbered(0));
  ASSERT_TRUE(l2->contains(BlobKind::kTrace, "a"));

  fs::remove_all(tmp.file("far"));  // the far tier vanishes mid-run

  EXPECT_TRUE(store.load("a").has_value());  // still served from L1
  EXPECT_NO_THROW(store.save("b", capture_numbered(1)));  // degrades
  EXPECT_TRUE(store.load("b").has_value());
  EXPECT_FALSE(fs::exists(tmp.file("far")));  // nothing resurrected it
  const auto st = store.stats();
  ASSERT_TRUE(st.tiers.has_value());
  EXPECT_GE(st.tiers->l2_errors, 1u);  // the failed write-through
  EXPECT_EQ(st.writes, 2u);            // both saves succeeded
}

TEST(TraceStoreTiered, TwoProcessReadThroughServesEverythingFromL2) {
  // The CI shape: process one populates a shared far tier; process two —
  // a fresh, EMPTY L1 over the same L2 — must answer every load by
  // read-through, bit-identically, with zero misses.
  const auto shared_l2 = std::make_shared<MemBackend>();
  {
    const TraceStore writer(
        std::make_shared<TieredBackend>(std::make_shared<MemBackend>(),
                                        shared_l2));
    writer.save("a", capture_numbered(0));
    writer.save("b", capture_numbered(1));
  }
  const auto fresh_l1 = std::make_shared<MemBackend>();
  const TraceStore reader(
      std::make_shared<TieredBackend>(fresh_l1, shared_l2,
                                      /*l2_writable=*/false));
  EXPECT_EQ(reader.stats().entries, 0u);  // L1 reopen index is empty
  const auto a = reader.load("a");
  const auto b = reader.load("b");
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  expect_identical(capture_numbered(0), *a);
  expect_identical(capture_numbered(1), *b);
  const auto st = reader.stats();
  EXPECT_EQ(st.misses, 0u);
  EXPECT_EQ(st.hits, 2u);
  ASSERT_TRUE(st.tiers.has_value());
  EXPECT_EQ(st.tiers->l2_hits, 2u);
  EXPECT_EQ(st.tiers->promotions, 2u);
  EXPECT_TRUE(fresh_l1->contains(BlobKind::kTrace, "a"));  // promoted
}

// ---- Experiment integration: capture once, replay across processes ----

core::ExperimentConfig store_experiment(std::shared_ptr<TraceStore> store,
                                        std::uint64_t app_seed = 5) {
  core::ExperimentConfig cfg;
  cfg.platform.hier.l2.size_bytes = 32 * 1024;
  cfg.profile_grid = {1, 4, 16};
  cfg.profile_runs = 2;
  cfg.profiler = core::ProfilerMode::kTraceReplay;
  cfg.trace_store = std::move(store);
  cfg.trace_key =
      core::app_trace_key("store-test", apps::AppConfig::tiny(app_seed));
  return cfg;
}

core::AppFactory tiny_m2v(std::uint64_t app_seed = 5) {
  return [app_seed] {
    return apps::make_m2v_app(apps::AppConfig::tiny(app_seed));
  };
}

TEST(TraceStore, ExperimentWarmStartsBitIdentically) {
  TempDir tmp;
  const auto cold_store = std::make_shared<TraceStore>(tmp.file("store"));
  const core::Experiment cold(tiny_m2v(), store_experiment(cold_store));
  const MissProfile reference = cold.profile();
  EXPECT_EQ(cold_store->stats().misses, 2u);  // one per jitter run
  EXPECT_EQ(cold_store->stats().writes, 2u);

  // A fresh store instance over the same directory models a new process:
  // every capture comes off disk, no simulation runs, profile identical.
  const auto warm_store = std::make_shared<TraceStore>(tmp.file("store"));
  const core::Experiment warm(tiny_m2v(), store_experiment(warm_store));
  EXPECT_TRUE(warm.profile().identical(reference));
  EXPECT_EQ(warm_store->stats().hits, 2u);
  EXPECT_EQ(warm_store->stats().misses, 0u);

  // And the store-free profile agrees too (the store changes where
  // captures come from, never what they contain).
  core::ExperimentConfig no_store = store_experiment(nullptr);
  const core::Experiment mem(tiny_m2v(), no_store);
  EXPECT_TRUE(mem.profile().identical(reference));
}

TEST(TraceStore, DigestChangesMissTheStore) {
  TempDir tmp;
  const auto store = std::make_shared<TraceStore>(tmp.file("store"));
  const core::Experiment base(tiny_m2v(), store_experiment(store));
  base.profile();
  const auto after_base = store->stats();

  // Different app content (tiny seed) -> different trace_key -> misses.
  const core::Experiment other_app(tiny_m2v(7), store_experiment(store, 7));
  other_app.profile();
  EXPECT_EQ(store->stats().misses, after_base.misses + 2);

  // Different platform (hierarchy seed) -> different digest -> misses.
  core::ExperimentConfig tweaked = store_experiment(store);
  tweaked.platform.hier.seed ^= 1;
  const core::Experiment other_platform(tiny_m2v(), tweaked);
  other_platform.profile();
  EXPECT_EQ(store->stats().misses, after_base.misses + 4);

  // Same everything -> all hits.
  const core::Experiment again(tiny_m2v(), store_experiment(store));
  const auto before = store->stats();
  again.profile();
  EXPECT_EQ(store->stats().misses, before.misses);
  EXPECT_EQ(store->stats().hits, before.hits + 2);
}

TEST(TraceStore, DigestSeparatesJitterRuns) {
  core::ExperimentConfig cfg = store_experiment(nullptr);
  const core::Experiment exp(tiny_m2v(), cfg);
  EXPECT_NE(exp.trace_digest(0), exp.trace_digest(1));
  EXPECT_EQ(exp.trace_digest(0), exp.trace_digest(0));
}

TEST(TraceStore, EmptyTraceKeyDisablesStoreUse) {
  TempDir tmp;
  const auto store = std::make_shared<TraceStore>(tmp.file("store"));
  core::ExperimentConfig cfg = store_experiment(store);
  cfg.trace_key.clear();
  const core::Experiment exp(tiny_m2v(), cfg);
  exp.profile();  // must not touch the store (warns instead)
  EXPECT_EQ(store->stats().hits + store->stats().misses +
                store->stats().writes,
            0u);
}

TEST(TraceStore, UnusableCapturesAreNeverPersisted) {
  // A capture run that trips the dispatch safety valve (or deadlocks, or
  // fails verification) must not be written: a bad entry would be served
  // as a silent hit by every later process.
  TempDir tmp;
  const auto store = std::make_shared<TraceStore>(tmp.file("store"));
  core::ExperimentConfig cfg = store_experiment(store);
  cfg.platform.max_dispatches = 1;  // run is cut off -> verify fails
  const core::Experiment exp(tiny_m2v(), cfg);
  exp.profile();
  EXPECT_EQ(store->stats().writes, 0u);
}

TEST(TraceStore, KRandomCapturesRoundTripThroughTheStore) {
  // The acceptance bar: store-loaded replay == in-memory replay ==
  // full simulation, including kRandom replacement.
  TempDir tmp;
  auto make_cfg = [&](std::shared_ptr<TraceStore> store) {
    core::ExperimentConfig cfg = store_experiment(std::move(store));
    cfg.platform.hier.l2.replacement = mem::Replacement::kRandom;
    return cfg;
  };
  const core::Experiment mem(tiny_m2v(), make_cfg(nullptr));
  const MissProfile fullsim = mem.profile_with(core::ProfilerMode::kFullSim);

  const auto s1 = std::make_shared<TraceStore>(tmp.file("store"));
  const core::Experiment cold(tiny_m2v(), make_cfg(s1));
  EXPECT_TRUE(cold.profile().identical(fullsim));

  const auto s2 = std::make_shared<TraceStore>(tmp.file("store"));
  const core::Experiment warm(tiny_m2v(), make_cfg(s2));
  EXPECT_TRUE(warm.profile().identical(fullsim));
  EXPECT_EQ(s2->stats().misses, 0u);
}

}  // namespace
}  // namespace cms::opt
