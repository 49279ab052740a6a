// Tests for the StoreBackend seam (opt/store_backend.hpp): the storage
// contract every implementation must satisfy (get/put/stat/remove/list
// with the vanished-vs-corrupt failure model), DirBackend's filesystem
// specifics (atomic publish, failed-unlink reporting, deterministic
// stalest-first listing with digest tie-breaks), MemBackend parity, and
// the TieredBackend composition: read-through with promote-on-hit,
// write-through, L1-only remove/list, and the degradation guarantee —
// every L2 failure is counted and logged, never surfaced as an error.
//
// opt::NetBackend (the tcp:// far tier) runs the SAME contract suite
// against an in-process blob server (net::FrameServer +
// opt::handle_blob_request over a MemBackend), plus a fault-injection
// suite: server gone mid-conversation, garbage and corrupted response
// frames, connection refused, stale-pool recovery across a server
// restart — and the flapping-L2 stress re-runs with the network in the
// loop, same counter algebra. The blob protocol itself must refuse any
// peer digest that could name a file outside the daemon's export.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/frame_server.hpp"
#include "opt/blob_protocol.hpp"
#include "opt/net_backend.hpp"
#include "opt/store_backend.hpp"

namespace cms::opt {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the system temp dir, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("cms-backend-test-" + std::to_string(::getpid()) + "-" +
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

StoreBackend::Blob blob_of(const std::string& text) {
  return StoreBackend::Blob(text.begin(), text.end());
}

/// Wraps a MemBackend and throws on demand, per operation — the shape of
/// a far tier whose network/filesystem is failing. Flags are atomic so
/// the tiered stress test may flip them mid-run.
class FailingBackend final : public StoreBackend {
 public:
  std::atomic<bool> fail_get{false};
  std::atomic<bool> fail_put{false};
  std::atomic<bool> fail_stat{false};

  std::string describe() const override { return "failing"; }
  std::optional<Blob> get(BlobKind kind, const std::string& digest) override {
    if (fail_get.load()) throw std::runtime_error("injected get failure");
    return inner_.get(kind, digest);
  }
  void put(BlobKind kind, const std::string& digest,
           const Blob& bytes) override {
    if (fail_put.load()) throw std::runtime_error("injected put failure");
    inner_.put(kind, digest, bytes);
  }
  std::optional<std::uint64_t> stat(BlobKind kind,
                                    const std::string& digest) override {
    if (fail_stat.load()) throw std::runtime_error("injected stat failure");
    return inner_.stat(kind, digest);
  }
  RemoveOutcome remove(BlobKind kind, const std::string& digest) override {
    return inner_.remove(kind, digest);
  }
  std::vector<ListedBlob> list(BlobKind kind) override {
    return inner_.list(kind);
  }

 private:
  MemBackend inner_;
};

/// An in-process blob server + NetBackend client over it: the loopback
/// version of the example_blob_server deployment, close enough to the
/// real thing that the full backend contract can run over the wire.
struct NetHarness {
  std::shared_ptr<StoreBackend> exported;
  std::unique_ptr<net::FrameServer> server;
  std::shared_ptr<NetBackend> client;
  bool writable = true;

  ~NetHarness() { stop_server(); }

  void stop_server() {
    if (!server) return;
    server->shutdown();
    server->join();
    server.reset();
  }

  /// A fresh server over the same exported backend on the SAME port —
  /// what a daemon restart looks like to a client with pooled sockets.
  void restart_server() {
    const std::uint16_t port = server ? server->port() : 0;
    stop_server();
    start_server(port);
  }

  void start_server(std::uint16_t port) {
    net::FrameServerConfig scfg;
    scfg.port = port;
    scfg.workers = 4;
    scfg.busy_response = blob_error_response("busy");
    scfg.fatal_response = blob_error_response("bad frame");
    const std::shared_ptr<StoreBackend> backend = exported;
    const bool rw = writable;
    scfg.handler = [backend, rw](const std::string& payload) {
      return handle_blob_request(*backend, payload, rw);
    };
    server = std::make_unique<net::FrameServer>(std::move(scfg));
    server->start();
  }
};

std::shared_ptr<NetHarness> make_net_harness(
    std::shared_ptr<StoreBackend> exported, NetBackendConfig ccfg = {},
    bool writable = true) {
  auto h = std::make_shared<NetHarness>();
  h->exported = std::move(exported);
  h->writable = writable;
  h->start_server(0);
  ccfg.port = h->server->port();
  h->client = std::make_shared<NetBackend>(ccfg);
  return h;
}

/// Client config tuned so deliberate faults fail in milliseconds, not
/// the production multi-second timeouts.
NetBackendConfig fast_fail_config() {
  NetBackendConfig cfg;
  cfg.connect_timeout_ms = 250;
  cfg.io_timeout_ms = 500;
  cfg.retry_backoff_ms = 1;
  return cfg;
}

// ---- The contract every backend satisfies (Dir, Mem and Net) ----

struct BackendFactory {
  const char* name;
  std::function<std::shared_ptr<StoreBackend>(TempDir&)> make;
};

std::vector<BackendFactory> contract_backends() {
  return {
      {"dir",
       [](TempDir& tmp) {
         return std::make_shared<DirBackend>(tmp.file("store"));
       }},
      {"mem", [](TempDir&) { return std::make_shared<MemBackend>(); }},
      {"net",
       [](TempDir&) -> std::shared_ptr<StoreBackend> {
         const auto h = make_net_harness(std::make_shared<MemBackend>());
         // Alias: the contract test holds one pointer; the harness
         // (server + exported store) rides along until it drops.
         return std::shared_ptr<StoreBackend>(h, h->client.get());
       }},
  };
}

TEST(StoreBackendContract, PutGetStatRemoveRoundTrip) {
  for (const BackendFactory& f : contract_backends()) {
    SCOPED_TRACE(f.name);
    TempDir tmp;
    const auto b = f.make(tmp);
    EXPECT_FALSE(b->get(BlobKind::kTrace, "k").has_value());
    EXPECT_FALSE(b->stat(BlobKind::kTrace, "k").has_value());
    EXPECT_FALSE(b->contains(BlobKind::kTrace, "k"));

    const StoreBackend::Blob bytes = blob_of("capture payload");
    b->put(BlobKind::kTrace, "k", bytes);
    const auto got = b->get(BlobKind::kTrace, "k");
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, bytes);
    const auto sz = b->stat(BlobKind::kTrace, "k");
    ASSERT_TRUE(sz.has_value());
    EXPECT_EQ(*sz, bytes.size());
    EXPECT_TRUE(b->contains(BlobKind::kTrace, "k"));

    EXPECT_EQ(b->remove(BlobKind::kTrace, "k"),
              StoreBackend::RemoveOutcome::kRemoved);
    EXPECT_EQ(b->remove(BlobKind::kTrace, "k"),
              StoreBackend::RemoveOutcome::kVanished);
    EXPECT_FALSE(b->get(BlobKind::kTrace, "k").has_value());
  }
}

TEST(StoreBackendContract, KindsAreIndependentNamespaces) {
  for (const BackendFactory& f : contract_backends()) {
    SCOPED_TRACE(f.name);
    TempDir tmp;
    const auto b = f.make(tmp);
    b->put(BlobKind::kTrace, "k", blob_of("trace"));
    b->put(BlobKind::kPlan, "k", blob_of("plan!"));
    EXPECT_EQ(*b->get(BlobKind::kTrace, "k"), blob_of("trace"));
    EXPECT_EQ(*b->get(BlobKind::kPlan, "k"), blob_of("plan!"));
    // Removing one kind's entry leaves the other kind's alone.
    EXPECT_EQ(b->remove(BlobKind::kTrace, "k"),
              StoreBackend::RemoveOutcome::kRemoved);
    EXPECT_TRUE(b->contains(BlobKind::kPlan, "k"));
    ASSERT_EQ(b->list(BlobKind::kPlan).size(), 1u);
    EXPECT_TRUE(b->list(BlobKind::kTrace).empty());
  }
}

TEST(StoreBackendContract, ListReportsDigestAndSizeInWriteOrder) {
  for (const BackendFactory& f : contract_backends()) {
    SCOPED_TRACE(f.name);
    TempDir tmp;
    const auto b = f.make(tmp);
    b->put(BlobKind::kTrace, "bb", blob_of("22"));
    b->put(BlobKind::kTrace, "aa", blob_of("4444"));
    const auto rows = b->list(BlobKind::kTrace);
    ASSERT_EQ(rows.size(), 2u);
    // Write order (mtime/seq) wins over lexical order when distinct.
    // DirBackend mtimes may collide within the same second, where the
    // digest tie-break makes lexical order correct too — accept both
    // orders but require digest/size integrity.
    std::uint64_t aa = 0, bb = 0;
    for (const auto& r : rows) {
      if (r.digest == "aa") aa = r.bytes;
      if (r.digest == "bb") bb = r.bytes;
    }
    EXPECT_EQ(aa, 4u);
    EXPECT_EQ(bb, 2u);
  }
}

TEST(StoreBackendContract, RewritingAKeyReplacesItsBytes) {
  for (const BackendFactory& f : contract_backends()) {
    SCOPED_TRACE(f.name);
    TempDir tmp;
    const auto b = f.make(tmp);
    b->put(BlobKind::kTrace, "k", blob_of("old"));
    b->put(BlobKind::kTrace, "k", blob_of("newer"));
    EXPECT_EQ(*b->get(BlobKind::kTrace, "k"), blob_of("newer"));
    EXPECT_EQ(b->list(BlobKind::kTrace).size(), 1u);
  }
}

// ---- DirBackend filesystem specifics ----

TEST(DirBackend, EmptyDirThrows) {
  EXPECT_THROW(DirBackend(""), std::runtime_error);
}

TEST(DirBackend, CreateFalseToleratesMissingDirectory) {
  TempDir tmp;
  DirBackend b(tmp.file("never-created"), /*create=*/false);
  EXPECT_FALSE(fs::exists(tmp.file("never-created")));
  EXPECT_FALSE(b.get(BlobKind::kTrace, "k").has_value());
  EXPECT_FALSE(b.stat(BlobKind::kTrace, "k").has_value());
  EXPECT_TRUE(b.list(BlobKind::kTrace).empty());
  EXPECT_EQ(b.remove(BlobKind::kTrace, "k"),
            StoreBackend::RemoveOutcome::kVanished);
}

TEST(DirBackend, UsesHistoricalFlatLayout) {
  TempDir tmp;
  DirBackend b(tmp.file("store"));
  b.put(BlobKind::kTrace, "abc123", blob_of("t"));
  b.put(BlobKind::kPlan, "abc123", blob_of("p"));
  EXPECT_TRUE(fs::exists(tmp.file("store") + "/abc123.cmstrace"));
  EXPECT_TRUE(fs::exists(tmp.file("store") + "/abc123.cmsplan"));
  EXPECT_EQ(b.path_of(BlobKind::kTrace, "abc123"),
            (fs::path(tmp.file("store")) / "abc123.cmstrace").string());
}

TEST(DirBackend, NoTempFilesSurviveAPut) {
  TempDir tmp;
  DirBackend b(tmp.file("store"));
  b.put(BlobKind::kTrace, "k", blob_of("payload"));
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(tmp.file("store"))) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(DirBackend, StatOfUnstatableEntryReportsUnknownSize) {
  TempDir tmp;
  DirBackend b(tmp.file("store"));
  // A directory wearing an entry's name: present, but file_size fails.
  fs::create_directory(b.path_of(BlobKind::kTrace, "ghost"));
  const auto sz = b.stat(BlobKind::kTrace, "ghost");
  ASSERT_TRUE(sz.has_value());
  EXPECT_EQ(*sz, 0u);
}

TEST(DirBackend, GetOfUnseekableEntryThrowsInsteadOfHugeAlloc) {
  // Regression: a FIFO (or device node) wearing an entry's name opens
  // fine but cannot seek, so tellg() reports -1 — which the old code
  // cast straight to size_t and passed to the Blob constructor as a
  // SIZE_MAX allocation. Present-but-unreadable must throw, with the
  // path in the message.
  TempDir tmp;
  DirBackend b(tmp.file("store"));
  const std::string path = b.path_of(BlobKind::kTrace, "fifo");
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << strerror(errno);
  // Hold an O_RDWR end open so the read-side open below cannot block.
  const int holder = ::open(path.c_str(), O_RDWR);
  ASSERT_GE(holder, 0);
  try {
    b.get(BlobKind::kTrace, "fifo");
    FAIL() << "get() of a FIFO entry did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  ::close(holder);
}

TEST(DirBackend, RemoveOfStuckEntryReportsFailed) {
  TempDir tmp;
  DirBackend b(tmp.file("store"));
  // A NON-EMPTY directory at the entry's path: unlink fails (ENOTEMPTY),
  // and the backend must say so rather than claim kRemoved/kVanished.
  fs::create_directories(fs::path(b.path_of(BlobKind::kTrace, "stuck")) /
                         "sub");
  EXPECT_EQ(b.remove(BlobKind::kTrace, "stuck"),
            StoreBackend::RemoveOutcome::kFailed);
}

TEST(DirBackend, ListBreaksMtimeTiesByDigest) {
  // The reopen-nondeterminism regression (satellite of this PR): two
  // entries written within one filesystem-timestamp quantum used to be
  // indexed in directory-iteration order, so which one a budgeted reopen
  // evicted first varied across runs. Ties now break by digest.
  TempDir tmp;
  DirBackend b(tmp.file("store"));
  // Deliberately non-lexical write order.
  b.put(BlobKind::kTrace, "cc", blob_of("3"));
  b.put(BlobKind::kTrace, "aa", blob_of("1"));
  b.put(BlobKind::kTrace, "bb", blob_of("2"));
  // Force identical mtimes regardless of filesystem timestamp precision.
  const auto stamp =
      fs::last_write_time(b.path_of(BlobKind::kTrace, "aa"));
  for (const char* d : {"aa", "bb", "cc"})
    fs::last_write_time(b.path_of(BlobKind::kTrace, d), stamp);
  const auto rows = b.list(BlobKind::kTrace);
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0].digest, "aa");
  EXPECT_EQ(rows[1].digest, "bb");
  EXPECT_EQ(rows[2].digest, "cc");
}

TEST(DirBackend, ListOrdersStalestFirstAcrossDistinctMtimes) {
  TempDir tmp;
  DirBackend b(tmp.file("store"));
  b.put(BlobKind::kTrace, "newer", blob_of("n"));
  b.put(BlobKind::kTrace, "older", blob_of("o"));
  // Make "older" decisively older than "newer" without sleeping.
  const std::string older = b.path_of(BlobKind::kTrace, "older");
  fs::last_write_time(older,
                      fs::last_write_time(older) - std::chrono::hours(1));
  const auto rows = b.list(BlobKind::kTrace);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].digest, "older");
  EXPECT_EQ(rows[1].digest, "newer");
}

// ---- MemBackend specifics ----

TEST(MemBackend, ListOrdersByInsertionIncludingRewrites) {
  MemBackend b;
  b.put(BlobKind::kTrace, "x", blob_of("1"));
  b.put(BlobKind::kTrace, "y", blob_of("2"));
  b.put(BlobKind::kTrace, "x", blob_of("3"));  // rewrite freshens x
  const auto rows = b.list(BlobKind::kTrace);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].digest, "y");
  EXPECT_EQ(rows[1].digest, "x");
}

TEST(MemBackend, SharedInstanceModelsReopen) {
  // The documented pattern: one MemBackend shared by several store
  // instances stands in for a directory shared by several processes.
  const auto b = std::make_shared<MemBackend>();
  b->put(BlobKind::kTrace, "k", blob_of("payload"));
  const std::shared_ptr<StoreBackend> reopened = b;
  EXPECT_TRUE(reopened->contains(BlobKind::kTrace, "k"));
  EXPECT_EQ(reopened->list(BlobKind::kTrace).size(), 1u);
}

// ---- TieredBackend composition ----

TEST(TieredBackend, NullTierIsRejected) {
  const auto mem = std::make_shared<MemBackend>();
  EXPECT_THROW(TieredBackend(nullptr, mem), std::invalid_argument);
  EXPECT_THROW(TieredBackend(mem, nullptr), std::invalid_argument);
}

TEST(TieredBackend, ReadThroughPromotesL2HitsIntoL1) {
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<MemBackend>();
  TieredBackend tiered(l1, l2);
  l2->put(BlobKind::kTrace, "k", blob_of("far bytes"));

  const auto got = tiered.get(BlobKind::kTrace, "k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, blob_of("far bytes"));
  EXPECT_TRUE(l1->contains(BlobKind::kTrace, "k"));  // promoted

  const auto again = tiered.get(BlobKind::kTrace, "k");  // now near
  ASSERT_TRUE(again.has_value());
  const auto c = tiered.tier_counters();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->l1_misses, 1u);
  EXPECT_EQ(c->l2_hits, 1u);
  EXPECT_EQ(c->promotions, 1u);
  EXPECT_EQ(c->l1_hits, 1u);
  EXPECT_EQ(c->l2_errors, 0u);
}

TEST(TieredBackend, PromoteCanBeDisabled) {
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<MemBackend>();
  TieredBackend::Config cfg;
  cfg.l1 = l1;
  cfg.l2 = l2;
  cfg.promote = false;
  TieredBackend tiered(std::move(cfg));
  l2->put(BlobKind::kTrace, "k", blob_of("far"));
  EXPECT_TRUE(tiered.get(BlobKind::kTrace, "k").has_value());
  EXPECT_TRUE(tiered.get(BlobKind::kTrace, "k").has_value());
  EXPECT_FALSE(l1->contains(BlobKind::kTrace, "k"));
  const auto c = tiered.tier_counters();
  EXPECT_EQ(c->l2_hits, 2u);  // every read pays the far trip
  EXPECT_EQ(c->promotions, 0u);
}

TEST(TieredBackend, PutWritesThroughToBothTiers) {
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<MemBackend>();
  TieredBackend tiered(l1, l2);
  tiered.put(BlobKind::kPlan, "k", blob_of("plan"));
  EXPECT_TRUE(l1->contains(BlobKind::kPlan, "k"));
  EXPECT_TRUE(l2->contains(BlobKind::kPlan, "k"));
  const auto c = tiered.tier_counters();
  EXPECT_EQ(c->l1_writes, 1u);
  EXPECT_EQ(c->l2_writes, 1u);
}

TEST(TieredBackend, ReadOnlyL2IsNeverWritten) {
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<MemBackend>();
  TieredBackend tiered(l1, l2, /*l2_writable=*/false);
  tiered.put(BlobKind::kTrace, "k", blob_of("local only"));
  EXPECT_TRUE(l1->contains(BlobKind::kTrace, "k"));
  EXPECT_FALSE(l2->contains(BlobKind::kTrace, "k"));
  EXPECT_EQ(tiered.tier_counters()->l2_writes, 0u);
}

TEST(TieredBackend, RemoveAndListTouchOnlyL1) {
  // A local budget eviction must never delete the fleet-shared copy —
  // and the reopen index seeds only the near tier.
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<MemBackend>();
  TieredBackend tiered(l1, l2);
  tiered.put(BlobKind::kTrace, "k", blob_of("v"));
  EXPECT_EQ(tiered.remove(BlobKind::kTrace, "k"),
            StoreBackend::RemoveOutcome::kRemoved);
  EXPECT_FALSE(l1->contains(BlobKind::kTrace, "k"));
  EXPECT_TRUE(l2->contains(BlobKind::kTrace, "k"));
  EXPECT_TRUE(tiered.list(BlobKind::kTrace).empty());
  // The evicted entry is still one read-through away.
  EXPECT_TRUE(tiered.get(BlobKind::kTrace, "k").has_value());
}

TEST(TieredBackend, StatFallsBackToL2) {
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<MemBackend>();
  TieredBackend tiered(l1, l2);
  l2->put(BlobKind::kTrace, "k", blob_of("12345"));
  const auto sz = tiered.stat(BlobKind::kTrace, "k");
  ASSERT_TRUE(sz.has_value());
  EXPECT_EQ(*sz, 5u);
  EXPECT_FALSE(tiered.stat(BlobKind::kTrace, "absent").has_value());
}

// ---- TieredBackend degradation: L2 failures are never errors ----

TEST(TieredBackend, L2GetFailureDegradesToAMiss) {
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<FailingBackend>();
  TieredBackend tiered(l1, l2);
  l2->put(BlobKind::kTrace, "k", blob_of("unreachable"));
  l2->fail_get = true;
  EXPECT_NO_THROW({
    EXPECT_FALSE(tiered.get(BlobKind::kTrace, "k").has_value());
  });
  EXPECT_EQ(tiered.tier_counters()->l2_errors, 1u);
  // L1 entries keep being served while the far tier is down.
  tiered.put(BlobKind::kTrace, "local", blob_of("near"));
  EXPECT_TRUE(tiered.get(BlobKind::kTrace, "local").has_value());
}

TEST(TieredBackend, L2PutFailureLeavesEntryL1Only) {
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<FailingBackend>();
  TieredBackend tiered(l1, l2);
  l2->fail_put = true;
  EXPECT_NO_THROW(tiered.put(BlobKind::kTrace, "k", blob_of("v")));
  EXPECT_TRUE(l1->contains(BlobKind::kTrace, "k"));
  EXPECT_FALSE(l2->contains(BlobKind::kTrace, "k"));
  const auto c = tiered.tier_counters();
  EXPECT_EQ(c->l1_writes, 1u);
  EXPECT_EQ(c->l2_writes, 0u);
  EXPECT_EQ(c->l2_errors, 1u);
}

TEST(TieredBackend, L2StatFailureDegradesToAbsent) {
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<FailingBackend>();
  TieredBackend tiered(l1, l2);
  l2->put(BlobKind::kTrace, "k", blob_of("v"));
  l2->fail_stat = true;
  EXPECT_NO_THROW({
    EXPECT_FALSE(tiered.stat(BlobKind::kTrace, "k").has_value());
  });
  EXPECT_EQ(tiered.tier_counters()->l2_errors, 1u);
}

TEST(TieredBackend, L1FailurePropagatesFromPut) {
  // The near tier IS the correctness boundary: its put failures must
  // surface, not degrade.
  const auto l1 = std::make_shared<FailingBackend>();
  const auto l2 = std::make_shared<MemBackend>();
  TieredBackend tiered(l1, l2);
  l1->fail_put = true;
  EXPECT_THROW(tiered.put(BlobKind::kTrace, "k", blob_of("v")),
               std::runtime_error);
}

TEST(TieredBackend, FailedPromotionIsStillAHit) {
  const auto l1 = std::make_shared<FailingBackend>();
  const auto l2 = std::make_shared<MemBackend>();
  TieredBackend tiered(l1, l2);
  l2->put(BlobKind::kTrace, "k", blob_of("far"));
  l1->fail_put = true;  // promotion will fail; the read must not
  const auto got = tiered.get(BlobKind::kTrace, "k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, blob_of("far"));
  const auto c = tiered.tier_counters();
  EXPECT_EQ(c->l2_hits, 1u);
  EXPECT_EQ(c->promotions, 0u);           // never counted as promoted
  EXPECT_EQ(c->promotion_failures, 1u);   // ...but no longer log-only
  EXPECT_EQ(c->l2_errors, 0u);  // the FAR tier answered fine
}

TEST(TieredBackend, TierCountersJsonSurfacesPromotionFailures) {
  // The stats JSON plan_server and the benches emit is built by one
  // shared helper; pin that new counters (promotion_failures) show up
  // there instead of silently falling out of the reports.
  const auto l1 = std::make_shared<FailingBackend>();
  const auto l2 = std::make_shared<MemBackend>();
  TieredBackend tiered(l1, l2);
  l2->put(BlobKind::kTrace, "k", blob_of("far"));
  l1->fail_put = true;
  ASSERT_TRUE(tiered.get(BlobKind::kTrace, "k").has_value());

  const std::string json = tier_counters_json(tiered.tier_counters());
  EXPECT_NE(json.find("\"tiers\""), std::string::npos);
  EXPECT_NE(json.find("\"promotion_failures\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"l2_hits\": 1"), std::string::npos);
  // And the no-tiers case renders as nothing, not broken JSON.
  EXPECT_EQ(tier_counters_json(std::nullopt), "");
}

TEST(TieredBackend, DescribeNamesBothTiers) {
  TempDir tmp;
  const auto l1 = std::make_shared<DirBackend>(tmp.file("near"));
  const auto l2 = std::make_shared<MemBackend>();
  TieredBackend tiered(l1, l2);
  EXPECT_EQ(tiered.describe(), "tiered(dir:" + tmp.file("near") + ", mem)");
}

// ---- Blob protocol: peer-supplied digests stay inside the export ----

TEST(BlobProtocol, DigestsThatCouldLeaveTheExportAreRefused) {
  // The daemon's DirBackend joins the request digest onto its directory,
  // so a digest that is not a plain token must be refused before it
  // reaches the backend. Sentinel entries sit where a traversal would
  // land: a successful get/stat/remove would read or delete them, a put
  // would overwrite them.
  TempDir tmp;
  DirBackend exported(tmp.file("export"));
  DirBackend outside(tmp.path.string());  // the export's parent
  for (const char* sentinel : {"escaped", "absolute"})
    outside.put(BlobKind::kTrace, sentinel, blob_of("outside"));

  for (const std::string& digest :
       {std::string("../escaped"), tmp.file("absolute"), std::string("a/b"),
        std::string(".."), std::string()})
    for (const BlobOp op :
         {BlobOp::kGet, BlobOp::kPut, BlobOp::kStat, BlobOp::kRemove}) {
      BlobRequest req;
      req.op = op;
      req.kind = BlobKind::kTrace;
      req.digest = digest;
      if (op == BlobOp::kPut) req.bytes = blob_of("planted");
      const BlobResponse resp = decode_blob_response(handle_blob_request(
          exported, encode_blob_request(req), /*writable=*/true));
      EXPECT_EQ(resp.status, BlobStatus::kError)
          << "op " << static_cast<int>(op) << " digest '" << digest << "'";
    }

  // Nothing appeared, vanished or changed: the export is still empty and
  // the sentinels are the only files outside it.
  std::vector<std::string> files;
  for (const auto& e : fs::recursive_directory_iterator(tmp.path))
    if (!e.is_directory()) files.push_back(e.path().string());
  std::sort(files.begin(), files.end());
  EXPECT_EQ(files, (std::vector<std::string>{tmp.file("absolute.cmstrace"),
                                             tmp.file("escaped.cmstrace")}));
  for (const char* sentinel : {"escaped", "absolute"})
    EXPECT_EQ(outside.get(BlobKind::kTrace, sentinel), blob_of("outside"))
        << sentinel;

  // Ops that address no blob carry an empty digest and still work.
  for (const BlobOp op : {BlobOp::kPing, BlobOp::kList}) {
    BlobRequest req;
    req.op = op;
    const BlobResponse resp = decode_blob_response(
        handle_blob_request(exported, encode_blob_request(req)));
    EXPECT_EQ(resp.status, BlobStatus::kOk) << static_cast<int>(op);
  }
}

// ---- NetBackend: endpoint parsing and fault injection ----

TEST(NetBackend, ParseTcpEndpointAcceptsHostColonPort) {
  const NetBackendConfig cfg = parse_tcp_endpoint("tcp://10.1.2.3:9000");
  EXPECT_EQ(cfg.host, "10.1.2.3");
  EXPECT_EQ(cfg.port, 9000);
}

TEST(NetBackend, ParseTcpEndpointRejectsMalformedUrls) {
  EXPECT_THROW(parse_tcp_endpoint("10.1.2.3:9000"), std::runtime_error);
  EXPECT_THROW(parse_tcp_endpoint("tcp://"), std::runtime_error);
  EXPECT_THROW(parse_tcp_endpoint("tcp://hostonly"), std::runtime_error);
  EXPECT_THROW(parse_tcp_endpoint("tcp://:9000"), std::runtime_error);
  EXPECT_THROW(parse_tcp_endpoint("tcp://h:"), std::runtime_error);
  EXPECT_THROW(parse_tcp_endpoint("tcp://h:port"), std::runtime_error);
  EXPECT_THROW(parse_tcp_endpoint("tcp://h:0"), std::runtime_error);
  EXPECT_THROW(parse_tcp_endpoint("tcp://h:70000"), std::runtime_error);
}

TEST(NetBackend, DescribeNamesTheEndpoint) {
  const auto h = make_net_harness(std::make_shared<MemBackend>());
  EXPECT_EQ(h->client->describe(),
            "tcp://127.0.0.1:" + std::to_string(h->server->port()));
}

TEST(NetBackend, ReadOnlyExportRejectsWritesServesReads) {
  const auto mem = std::make_shared<MemBackend>();
  mem->put(BlobKind::kTrace, "k", blob_of("published"));
  const auto h =
      make_net_harness(mem, fast_fail_config(), /*writable=*/false);
  const auto got = h->client->get(BlobKind::kTrace, "k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, blob_of("published"));
  // Writes come back as server errors, not silent drops.
  EXPECT_THROW(h->client->put(BlobKind::kTrace, "w", blob_of("x")),
               std::runtime_error);
  EXPECT_FALSE(mem->contains(BlobKind::kTrace, "w"));
  // remove() maps every failure to kFailed per the StoreBackend contract.
  EXPECT_EQ(h->client->remove(BlobKind::kTrace, "k"),
            StoreBackend::RemoveOutcome::kFailed);
  EXPECT_TRUE(mem->contains(BlobKind::kTrace, "k"));
}

TEST(NetBackend, ServerGoneMidConversationThrowsThenTieredDegrades) {
  const auto h =
      make_net_harness(std::make_shared<MemBackend>(), fast_fail_config());
  h->client->put(BlobKind::kTrace, "k", blob_of("v"));  // pools a socket
  h->stop_server();

  // Bare client: transport failure after all retries IS an exception —
  // NetBackend cannot distinguish "absent" from "unreachable".
  EXPECT_THROW(h->client->get(BlobKind::kTrace, "k"), std::runtime_error);
  EXPECT_EQ(h->client->counters().failures, 1u);

  // Under the tiered seam the same failure is a counted, logged miss.
  const auto l1 = std::make_shared<MemBackend>();
  TieredBackend tiered(l1, h->client);
  EXPECT_NO_THROW({
    EXPECT_FALSE(tiered.get(BlobKind::kTrace, "k").has_value());
  });
  EXPECT_GT(tiered.tier_counters()->l2_errors, 0u);
  // And remove() never throws even with the daemon gone.
  EXPECT_EQ(h->client->remove(BlobKind::kTrace, "k"),
            StoreBackend::RemoveOutcome::kFailed);
}

TEST(NetBackend, ConnectRefusedFailsAfterConfiguredRetries) {
  // Grab an ephemeral port that is then closed again: connecting to it
  // refuses immediately, so the retry loop spins through its budget
  // fast. The resulting counters pin the retry policy: one op, every
  // retry taken, one failure.
  std::uint16_t dead_port = 0;
  {
    net::FrameServerConfig scfg;
    scfg.handler = [](const std::string& p) { return p; };
    net::FrameServer probe(std::move(scfg));
    dead_port = probe.port();
  }
  NetBackendConfig cfg = fast_fail_config();
  cfg.port = dead_port;
  cfg.retries = 2;
  NetBackend nb(cfg);
  EXPECT_THROW(nb.get(BlobKind::kTrace, "k"), std::runtime_error);
  const NetBackend::Counters c = nb.counters();
  EXPECT_EQ(c.ops, 1u);
  EXPECT_EQ(c.retries, 2u);
  EXPECT_EQ(c.failures, 1u);
}

TEST(NetBackend, GarbageResponseThrowsWithoutRetry) {
  // A server that answers every frame with bytes that are not a blob
  // response: protocol corruption, NOT a transport fault — the client
  // must throw immediately instead of retrying garbage.
  net::FrameServerConfig scfg;
  scfg.handler = [](const std::string&) {
    return std::string("these are not the bytes you are looking for");
  };
  net::FrameServer server(std::move(scfg));
  server.start();
  NetBackendConfig cfg = fast_fail_config();
  cfg.port = server.port();
  cfg.retries = 3;
  NetBackend nb(cfg);
  EXPECT_THROW(nb.get(BlobKind::kTrace, "k"), std::runtime_error);
  EXPECT_EQ(nb.counters().retries, 0u);  // corruption is never retried
  server.shutdown();
  server.join();
}

TEST(NetBackend, CorruptedPayloadFailsTheChecksum) {
  // A man-in-the-middle flipping one payload byte: the frame parses, the
  // header validates, but the bulk-bytes checksum must catch the damage.
  const auto mem = std::make_shared<MemBackend>();
  mem->put(BlobKind::kTrace, "k", blob_of("precious payload bytes"));
  net::FrameServerConfig scfg;
  scfg.handler = [mem](const std::string& payload) {
    std::string resp = handle_blob_request(*mem, payload);
    resp[resp.size() / 2] ^= 0x01;  // one bit, mid-payload
    return resp;
  };
  net::FrameServer server(std::move(scfg));
  server.start();
  NetBackendConfig cfg = fast_fail_config();
  cfg.port = server.port();
  NetBackend nb(cfg);
  EXPECT_THROW(nb.get(BlobKind::kTrace, "k"), std::runtime_error);
  EXPECT_EQ(nb.counters().retries, 0u);
  server.shutdown();
  server.join();
}

TEST(NetBackend, ServerRestartRecoversThePooledConnection) {
  // A pooled socket from before a daemon restart is dead on arrival;
  // the client must treat that stale-connection failure as free (no
  // retry budget spent), dial fresh, and succeed.
  const auto h =
      make_net_harness(std::make_shared<MemBackend>(), fast_fail_config());
  h->client->put(BlobKind::kTrace, "k", blob_of("survives"));  // pools
  h->restart_server();

  const auto got = h->client->get(BlobKind::kTrace, "k");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, blob_of("survives"));
  const NetBackend::Counters c = h->client->counters();
  EXPECT_EQ(c.failures, 0u);
  EXPECT_EQ(c.reconnects, 2u);  // the original dial + the recovery dial
}

// ---- Tiered stress: concurrent reads/writes/evictions + failing L2 ----

/// The shared stress body: `kThreads` threads hammer one tiered backend
/// over a small digest set while a toggler flips `flapper` between
/// healthy and failing. Invariants: no call ever throws (degradation,
/// never errors), every successful get returns the digest's canonical
/// bytes, and the counters add up (gets == l1 hits + l1 misses; every
/// l1 miss resolves to an l2 hit, l2 miss or l2 error). TSan runs both
/// instantiations — direct and over-the-wire — to certify the seam.
void run_flapping_l2_stress(TieredBackend& tiered, FailingBackend& flapper,
                            int ops_per_thread) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kDigests = 5;

  const auto digest_of = [](std::uint64_t d) {
    return "stress-" + std::to_string(d);
  };
  const auto bytes_of = [](std::uint64_t d) {
    return blob_of("payload-" + std::to_string(d));
  };

  std::atomic<bool> stop{false};
  std::thread toggler([&] {
    bool failing = false;
    while (!stop.load()) {
      failing = !failing;
      flapper.fail_get = failing;
      flapper.fail_put = failing;
      flapper.fail_stat = failing;
      std::this_thread::yield();
    }
    flapper.fail_get = flapper.fail_put = flapper.fail_stat = false;
  });

  std::atomic<std::uint64_t> gets{0};
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      Rng rng(0x71E2EDull + static_cast<std::uint64_t>(t));
      for (int op = 0; op < ops_per_thread; ++op) {
        const std::uint64_t d = rng.below(kDigests);
        const std::string digest = digest_of(d);
        switch (rng.below(5)) {
          case 0:
          case 1:
            tiered.put(BlobKind::kTrace, digest, bytes_of(d));
            break;
          case 2:
          case 3: {
            const auto got = tiered.get(BlobKind::kTrace, digest);
            gets.fetch_add(1, std::memory_order_relaxed);
            if (got) {
              EXPECT_EQ(*got, bytes_of(d));
            }
            break;
          }
          case 4:
            tiered.remove(BlobKind::kTrace, digest);  // L1-only eviction
            break;
        }
        if (op % 16 == 0) (void)tiered.tier_counters();
      }
    });
  for (auto& th : pool) th.join();
  stop = true;
  toggler.join();

  const auto c = tiered.tier_counters();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->l1_hits + c->l1_misses, gets.load());
  EXPECT_EQ(c->l1_misses, c->l2_hits + c->l2_misses +
                              (c->l2_errors - (c->l1_writes - c->l2_writes)));
  // With the far tier healthy again, every entry written to either tier
  // round-trips with its canonical bytes.
  for (std::uint64_t d = 0; d < kDigests; ++d)
    if (const auto got = tiered.get(BlobKind::kTrace, digest_of(d))) {
      EXPECT_EQ(*got, bytes_of(d));
    }
}

TEST(TieredBackendStress, ConcurrentOpsWithFlappingL2StayConsistent) {
  const auto l1 = std::make_shared<MemBackend>();
  const auto l2 = std::make_shared<FailingBackend>();
  TieredBackend tiered(l1, l2);
  run_flapping_l2_stress(tiered, *l2, 200);
}

TEST(TieredBackendStress, FlappingL2OverTheWireStaysConsistent) {
  // Same invariants with the whole network stack in the loop: the
  // flapping backend sits BEHIND an in-process blob server, so every
  // injected failure travels as a kError response and every healthy op
  // as a framed RPC. The tiered seam must not care which L2 it has.
  const auto flapper = std::make_shared<FailingBackend>();
  const auto h = make_net_harness(flapper, fast_fail_config());
  const auto l1 = std::make_shared<MemBackend>();
  TieredBackend tiered(l1, h->client);
  run_flapping_l2_stress(tiered, *flapper, 60);
  EXPECT_GT(h->client->counters().ops, 0u);
  EXPECT_EQ(h->client->counters().retries, 0u);  // server errors never retry
}

}  // namespace
}  // namespace cms::opt
