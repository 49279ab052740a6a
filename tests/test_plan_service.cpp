// Tests for svc::PlanningService (the store-aware planning endpoint):
// concurrent clients get bit-identical assignments (and identical to a
// direct Experiment plan), repeat requests are store hits that skip the
// capture simulation, single-flight dedup performs exactly one capture
// for simultaneous identical requests, capacity eviction never corrupts
// an entry pinned by an in-flight request, failures come back as error
// responses instead of exceptions, the read-only-store path reports its
// deferred captures honestly, the memoized plan cache turns repeat
// requests into pure lookups, a tiered store lets a fresh process answer
// by L2 read-through with zero captures, one shared backend feeds both
// the store and the plan cache, a request builds its application only
// for the task/buffer inventory and its captures (never on a plan-cache
// hit), and the plan_server protocol parser rejects malformed values
// (non-finite/negative eps included).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/scenario.hpp"
#include "svc/plan_protocol.hpp"
#include "svc/planning_service.hpp"

namespace cms::svc {
namespace {

namespace fs = std::filesystem;

/// Fresh directory under the system temp dir, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    static int counter = 0;
    path = fs::temp_directory_path() /
           ("cms-svc-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string store_dir() const { return (path / "store").string(); }
};

std::shared_ptr<opt::TraceStore> make_store(
    const TempDir& tmp,
    opt::TraceStore::Capacity cap = opt::TraceStore::Capacity()) {
  return std::make_shared<opt::TraceStore>(tmp.store_dir(),
                                           /*read_only=*/false, cap);
}

TEST(PlanService, ConcurrentClientsMatchEachOtherAndDirectPlan) {
  TempDir tmp;
  PlanningService service({make_store(tmp), /*jobs=*/1, nullptr, nullptr});
  PlanRequest req;
  req.scenario = "mpeg2-tiny";

  constexpr int kClients = 4;
  std::vector<PlanResponse> responses(kClients);
  {
    std::vector<std::thread> pool;
    for (int c = 0; c < kClients; ++c)
      pool.emplace_back([&, c] { responses[c] = service.plan(req); });
    for (auto& t : pool) t.join();
  }
  for (const PlanResponse& r : responses) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(r.assignment.feasible);
    EXPECT_TRUE(r.assignment.identical(responses[0].assignment));
    ASSERT_EQ(r.captures.size(), 1u);  // mpeg2-tiny: profile_runs == 1
  }

  // Identical to the plan a direct Experiment produces from the spec's
  // own (full-simulation) profiler — the service changes where captures
  // come from, never what the plan contains.
  const core::Experiment direct =
      core::scenarios().make_experiment("mpeg2-tiny");
  const opt::PartitionPlan reference = direct.plan(direct.profile());
  EXPECT_TRUE(responses[0].assignment.identical(reference));

  // Predictions come straight from the profile at the assigned sizes.
  const PlanResponse& r0 = responses[0];
  ASSERT_FALSE(r0.tasks.empty());
  for (const auto& t : r0.tasks) {
    const opt::PlanEntry* e = r0.assignment.find(t.name);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(t.sets, e->sets);
    EXPECT_EQ(t.predicted_misses, e->expected_misses);
    EXPECT_GT(t.predicted_cycles, 0.0);
  }
}

TEST(PlanService, SecondRequestHitsTheStoreAndSkipsCapture) {
  TempDir tmp;
  std::atomic<int> captures{0};
  PlanningServiceConfig cfg;
  cfg.store = make_store(tmp);
  cfg.capture_started = [&](const std::string&) { ++captures; };
  PlanningService service(std::move(cfg));

  PlanRequest req;
  req.scenario = "mpeg2-tiny";
  const PlanResponse first = service.plan(req);
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_EQ(first.captured(), 1u);
  EXPECT_EQ(captures.load(), 1);

  const PlanResponse second = service.plan(req);
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(second.captured(), 0u);
  EXPECT_EQ(second.store_hits(), 1u);
  EXPECT_EQ(captures.load(), 1);  // no new instrumented simulation
  EXPECT_TRUE(second.assignment.identical(first.assignment));

  // A fresh service over the same directory models a new server process:
  // still a pure store hit.
  PlanningService other({make_store(tmp), 1, nullptr, nullptr});
  const PlanResponse warm = other.plan(req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.captured(), 0u);
  EXPECT_TRUE(warm.assignment.identical(first.assignment));
}

TEST(PlanService, SingleFlightPerformsExactlyOneCapture) {
  TempDir tmp;
  std::atomic<int> captures{0};
  PlanningServiceConfig cfg;
  cfg.store = make_store(tmp);
  // Hold the single-flight leader inside the capture section long enough
  // that the other clients arrive while it is in flight; the assertion
  // below does NOT depend on this window (exactly-one-capture holds for
  // every interleaving), the delay just makes the coalesced path the
  // overwhelmingly common one.
  cfg.capture_started = [&](const std::string&) {
    ++captures;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  PlanningService service(std::move(cfg));

  PlanRequest req;
  req.scenario = "mpeg2-tiny";
  constexpr int kClients = 4;
  std::vector<PlanResponse> responses(kClients);
  {
    std::vector<std::thread> pool;
    for (int c = 0; c < kClients; ++c)
      pool.emplace_back([&, c] { responses[c] = service.plan(req); });
    for (auto& t : pool) t.join();
  }

  EXPECT_EQ(captures.load(), 1);  // the single-flight guarantee
  std::uint64_t captured_total = 0;
  for (const PlanResponse& r : responses) {
    ASSERT_TRUE(r.ok) << r.error;
    captured_total += r.captured();
    EXPECT_TRUE(r.assignment.identical(responses[0].assignment));
  }
  EXPECT_EQ(captured_total, 1u);
  const ServiceStats stats = service.service_stats();
  EXPECT_EQ(stats.captured, 1u);
  // Every client either ran its own capture phase (captured / store hit /
  // capture-coalesced, one digest each) or joined a concurrent leader's
  // union sweep and never touched the store at all.
  EXPECT_EQ(stats.captured + stats.store_hits + stats.coalesced +
                stats.sweeps_coalesced,
            static_cast<std::uint64_t>(kClients));
}

TEST(PlanService, EvictionUnderTightBudgetNeverCorruptsPinnedEntries) {
  // A one-entry budget forces the two scenarios to evict each other's
  // capture on every write; requests pin their digests, so the replay
  // that follows each capture always finds its entry intact. Interleave
  // concurrent requests and verify every response against unpressured
  // references.
  TempDir tmp;
  opt::TraceStore::Capacity tight;
  tight.max_entries = 1;
  PlanningService service({make_store(tmp, tight), 1, nullptr, nullptr});

  const std::vector<std::string> names = {"mpeg2-tiny", "jpeg-canny-tiny"};
  std::vector<opt::PartitionPlan> reference;
  for (const auto& name : names) {
    const core::Experiment direct = core::scenarios().make_experiment(name);
    reference.push_back(direct.plan(direct.profile()));
  }

  constexpr int kRounds = 3;
  std::vector<std::vector<PlanResponse>> responses(
      names.size(), std::vector<PlanResponse>(kRounds));
  {
    std::vector<std::thread> pool;
    for (std::size_t n = 0; n < names.size(); ++n)
      pool.emplace_back([&, n] {
        PlanRequest req;
        req.scenario = names[n];
        for (int r = 0; r < kRounds; ++r) responses[n][r] = service.plan(req);
      });
    for (auto& t : pool) t.join();
  }
  for (std::size_t n = 0; n < names.size(); ++n)
    for (const PlanResponse& r : responses[n]) {
      ASSERT_TRUE(r.ok) << names[n] << ": " << r.error;
      EXPECT_TRUE(r.assignment.identical(reference[n])) << names[n];
    }

  // The budget did bite (both scenarios cannot stay resident at once):
  // with every pin released, gc() settles the store within it, and at
  // least one eviction must have happened along the way.
  service.gc();
  EXPECT_GT(service.store_stats().evictions, 0u);
  EXPECT_LE(service.store_stats().entries, 1u);
}

TEST(PlanService, RequestOverridesSeparateStoreEntriesAndPlans) {
  TempDir tmp;
  PlanningService service({make_store(tmp), 1, nullptr, nullptr});
  PlanRequest req;
  req.scenario = "mpeg2-tiny";
  const PlanResponse base = service.plan(req);
  ASSERT_TRUE(base.ok) << base.error;

  // A platform override changes the capture digest (the L2 config is part
  // of the content address), so the store misses and a fresh capture runs.
  PlanRequest bigger = req;
  bigger.l2_size_bytes = 64 * 1024;
  const PlanResponse big = service.plan(bigger);
  ASSERT_TRUE(big.ok) << big.error;
  EXPECT_EQ(big.captured(), 1u);
  EXPECT_NE(big.captures[0].digest, base.captures[0].digest);
  EXPECT_EQ(big.assignment.total_sets, base.assignment.total_sets * 2);

  // A grid override replays the SAME capture (the digest does not depend
  // on the sweep grid) at different candidate sizes.
  PlanRequest coarse = req;
  coarse.grid = {1, 8};
  const PlanResponse small = service.plan(coarse);
  ASSERT_TRUE(small.ok) << small.error;
  EXPECT_EQ(small.captured(), 0u);
  EXPECT_EQ(small.captures[0].digest, base.captures[0].digest);
  for (const auto& t : small.tasks) EXPECT_TRUE(t.sets == 1 || t.sets == 8);
}

TEST(PlanService, FailuresComeBackAsErrorResponses) {
  TempDir tmp;
  PlanningService service({make_store(tmp), 1, nullptr, nullptr});

  PlanRequest unknown;
  unknown.scenario = "no-such-scenario";
  const PlanResponse r1 = service.plan(unknown);
  EXPECT_FALSE(r1.ok);
  EXPECT_NE(r1.error.find("unknown scenario"), std::string::npos) << r1.error;

  PlanRequest bad_grid;
  bad_grid.scenario = "mpeg2-tiny";
  bad_grid.grid = {4, 0, 8};
  const PlanResponse r2 = service.plan(bad_grid);
  EXPECT_FALSE(r2.ok);
  EXPECT_NE(r2.error.find("size 0"), std::string::npos) << r2.error;

  // A size past kMaxGridSets would wrap the uniform plan's u32 set total
  // (400000000 sets per task) and size replay state by it; the error
  // names the value.
  PlanRequest huge_grid;
  std::string parse_err;
  ASSERT_TRUE(parse_plan_request("mpeg2-tiny grid=400000000,1", huge_grid,
                                 parse_err))
      << parse_err;
  const PlanResponse huge = service.plan(huge_grid);
  EXPECT_FALSE(huge.ok);
  EXPECT_NE(huge.error.find("grid size 400000000"), std::string::npos)
      << huge.error;
  huge_grid.grid = {1, kMaxGridSets + 1};
  const PlanResponse past_limit = service.plan(huge_grid);
  EXPECT_FALSE(past_limit.ok);
  EXPECT_NE(past_limit.error.find(std::to_string(kMaxGridSets + 1)),
            std::string::npos)
      << past_limit.error;

  // Replay time and memory grow with the grid's length, so it is bounded
  // too: one past kMaxGridPoints distinct sizes is an error naming the
  // count, and kMaxGridPoints sizes still plan.
  std::string long_line = "mpeg2-tiny grid=1";
  for (std::size_t s = 2; s <= kMaxGridPoints + 1; ++s) {
    long_line += ',';
    long_line += std::to_string(s);
  }
  PlanRequest long_grid;
  ASSERT_TRUE(parse_plan_request(long_line, long_grid, parse_err)) << parse_err;
  ASSERT_EQ(long_grid.grid.size(), kMaxGridPoints + 1);
  const PlanResponse too_long = service.plan(long_grid);
  EXPECT_FALSE(too_long.ok);
  EXPECT_NE(too_long.error.find(std::to_string(kMaxGridPoints + 1) + " sizes"),
            std::string::npos)
      << too_long.error;
  long_grid.grid.pop_back();
  const PlanResponse at_limit = service.plan(long_grid);
  EXPECT_TRUE(at_limit.ok) << at_limit.error;

  // Each run is a capture simulation and a pinned store entry, so the
  // run count is bounded too; the error names the value.
  PlanRequest many_runs;
  ASSERT_TRUE(parse_plan_request(
      "mpeg2-tiny runs=" + std::to_string(kMaxProfileRuns + 1), many_runs,
      parse_err))
      << parse_err;
  const PlanResponse too_many = service.plan(many_runs);
  EXPECT_FALSE(too_many.ok);
  EXPECT_NE(too_many.error.find("runs " + std::to_string(kMaxProfileRuns + 1)),
            std::string::npos)
      << too_many.error;

  // An L2 override below one set would divide by zero in the cache model.
  PlanRequest tiny_l2;
  tiny_l2.scenario = "mpeg2-tiny";
  tiny_l2.l2_size_bytes = 64;  // < line_bytes * ways
  const PlanResponse r4 = service.plan(tiny_l2);
  EXPECT_FALSE(r4.ok);
  EXPECT_NE(r4.error.find("smaller than one set"), std::string::npos)
      << r4.error;

  // Nor may it hold a partial set (mpeg2-tiny's sets are 256 bytes): the
  // cache model would round it down to whole sets. The error names the
  // value, and a whole number of sets still plans.
  PlanRequest partial_l2;
  ASSERT_TRUE(parse_plan_request("mpeg2-tiny l2=1000", partial_l2, parse_err))
      << parse_err;
  const PlanResponse partial = service.plan(partial_l2);
  EXPECT_FALSE(partial.ok);
  EXPECT_NE(partial.error.find("1000 is not a whole number of sets"),
            std::string::npos)
      << partial.error;
  partial_l2.l2_size_bytes = 768;
  const PlanResponse whole = service.plan(partial_l2);
  EXPECT_TRUE(whole.ok) << whole.error;

  // A scenario without a trace_key cannot be content-addressed.
  static bool registered = false;
  if (!registered) {
    core::ScenarioSpec spec;
    spec.name = "svc-no-key";
    spec.description = "planning-service error-path fixture";
    spec.factory = [] { return apps::make_m2v_app(apps::AppConfig::tiny()); };
    core::scenarios().add(std::move(spec));
    registered = true;
  }
  PlanRequest keyless;
  keyless.scenario = "svc-no-key";
  const PlanResponse r3 = service.plan(keyless);
  EXPECT_FALSE(r3.ok);
  EXPECT_NE(r3.error.find("trace_key"), std::string::npos) << r3.error;

  // Non-finite eps would poison the plan-cache key and the curvature
  // comparisons; it must be a request error, not undefined behavior.
  PlanRequest bad_eps;
  bad_eps.scenario = "mpeg2-tiny";
  bad_eps.curvature_eps = std::numeric_limits<double>::quiet_NaN();
  const PlanResponse r5 = service.plan(bad_eps);
  EXPECT_FALSE(r5.ok);
  EXPECT_NE(r5.error.find("finite"), std::string::npos) << r5.error;

  EXPECT_THROW(PlanningService({nullptr, 1, nullptr, nullptr}), std::invalid_argument);
}

TEST(PlanService, ReadOnlyStoreReportsDeferredCapturesHonestly) {
  // BUGFIX regression (ro-store provenance): ensure_capture over a
  // read-only store used to report kCaptured without having simulated
  // anything — capture_ms read ~0 while profile_ms silently absorbed the
  // capture cost and the capture_started hook never fired. The ro
  // contract now: provenance kDeferred, service_stats().deferred counts
  // it, captured stays 0 and the hook stays silent.
  TempDir tmp;
  fs::create_directories(tmp.store_dir());  // ro stores don't create dirs
  std::atomic<int> hook_fired{0};
  PlanningServiceConfig cfg;
  cfg.store = std::make_shared<opt::TraceStore>(tmp.store_dir(),
                                                /*read_only=*/true);
  cfg.capture_started = [&](const std::string&) { ++hook_fired; };
  PlanningService service(std::move(cfg));

  PlanRequest req;
  req.scenario = "mpeg2-tiny";
  const PlanResponse resp = service.plan(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  ASSERT_EQ(resp.captures.size(), 1u);
  EXPECT_EQ(resp.captures[0].source, CaptureSource::kDeferred);
  EXPECT_EQ(resp.deferred(), 1u);
  EXPECT_EQ(resp.captured(), 0u);   // nothing was simulated at capture time
  EXPECT_EQ(resp.store_hits(), 0u);
  EXPECT_EQ(hook_fired.load(), 0);  // no store-persisted capture started
  const ServiceStats stats = service.service_stats();
  EXPECT_EQ(stats.deferred, 1u);
  EXPECT_EQ(stats.captured, 0u);
  // The simulation really ran — inside profile() — and produced the same
  // plan a read-write service computes.
  const core::Experiment direct =
      core::scenarios().make_experiment("mpeg2-tiny");
  EXPECT_TRUE(resp.assignment.identical(direct.plan(direct.profile())));

  // Prewarmed ro store: the same request is then an honest store hit.
  {
    PlanningService warmer({std::make_shared<opt::TraceStore>(
                                tmp.store_dir(), false),
                            1, nullptr, nullptr});
    ASSERT_TRUE(warmer.plan(req).ok);
  }
  const PlanResponse warm = service.plan(req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.captures[0].source, CaptureSource::kStoreHit);
  EXPECT_EQ(warm.deferred(), 0u);
}

TEST(PlanService, PlanCacheServesRepeatRequestsWithoutStoreOrSolver) {
  TempDir tmp;
  PlanningServiceConfig cfg;
  cfg.store = make_store(tmp);
  cfg.plan_cache = std::make_shared<opt::PlanCache>(opt::PlanCache::Config{});
  PlanningService service(std::move(cfg));

  PlanRequest req;
  req.scenario = "mpeg2-tiny";
  const PlanResponse computed = service.plan(req);
  ASSERT_TRUE(computed.ok) << computed.error;
  EXPECT_EQ(computed.plan_source, PlanSource::kComputed);

  const opt::TraceStore::Stats store_before = service.store_stats();
  const PlanResponse cached = service.plan(req);
  ASSERT_TRUE(cached.ok) << cached.error;
  // A cache hit is a pure lookup: no pin, no store probe, no replay, no
  // MCKP solve — and a bit-identical response.
  EXPECT_EQ(cached.plan_source, PlanSource::kCache);
  EXPECT_EQ(cached.captured(), 0u);
  EXPECT_EQ(cached.store_hits(), 0u);
  ASSERT_EQ(cached.captures.size(), 1u);
  EXPECT_EQ(cached.captures[0].source, CaptureSource::kPlanCached);
  EXPECT_EQ(cached.captures[0].digest, computed.captures[0].digest);
  EXPECT_EQ(cached.profile_ms, 0.0);
  EXPECT_EQ(cached.plan_ms, 0.0);
  EXPECT_TRUE(cached.assignment.identical(computed.assignment));
  ASSERT_EQ(cached.tasks.size(), computed.tasks.size());
  for (std::size_t i = 0; i < cached.tasks.size(); ++i) {
    EXPECT_EQ(cached.tasks[i].name, computed.tasks[i].name);
    EXPECT_EQ(cached.tasks[i].sets, computed.tasks[i].sets);
    EXPECT_EQ(cached.tasks[i].predicted_misses,
              computed.tasks[i].predicted_misses);
    EXPECT_EQ(cached.tasks[i].predicted_cycles,
              computed.tasks[i].predicted_cycles);
  }
  const opt::TraceStore::Stats store_after = service.store_stats();
  EXPECT_EQ(store_after.hits, store_before.hits);
  EXPECT_EQ(store_after.misses, store_before.misses);
  EXPECT_EQ(service.service_stats().plan_cache_hits, 1u);
  EXPECT_EQ(service.plan_cache_stats().hits, 1u);
}

TEST(PlanService, PlanCacheKeySeparatesRequestVariants) {
  TempDir tmp;
  PlanningServiceConfig cfg;
  cfg.store = make_store(tmp);
  cfg.plan_cache = std::make_shared<opt::PlanCache>(opt::PlanCache::Config{});
  PlanningService service(std::move(cfg));

  PlanRequest req;
  req.scenario = "mpeg2-tiny";
  ASSERT_TRUE(service.plan(req).ok);

  // Each override must address a DIFFERENT plan entry (never serve the
  // base plan), and repeating it must hit its own entry.
  std::vector<PlanRequest> variants;
  variants.push_back(req);
  variants.back().grid = {1, 8};
  variants.push_back(req);
  variants.back().runs = 2;
  variants.push_back(req);
  variants.back().l2_size_bytes = 64 * 1024;
  variants.push_back(req);
  variants.back().curvature_eps = 0.25;

  for (const PlanRequest& v : variants) {
    const PlanResponse first = service.plan(v);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.plan_source, PlanSource::kComputed);
    const PlanResponse second = service.plan(v);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(second.plan_source, PlanSource::kCache);
    EXPECT_TRUE(second.assignment.identical(first.assignment));
  }
}

TEST(PlanService, PlanCacheDiskTierSurvivesProcessRestart) {
  TempDir tmp;
  const auto disk_cache = [&] {
    opt::PlanCache::Config cfg;
    cfg.backend = std::make_shared<opt::DirBackend>(tmp.store_dir());
    return std::make_shared<opt::PlanCache>(std::move(cfg));
  };
  PlanRequest req;
  req.scenario = "mpeg2-tiny";

  PlanningService first({make_store(tmp), 1, nullptr, disk_cache()});
  const PlanResponse computed = first.plan(req);
  ASSERT_TRUE(computed.ok) << computed.error;

  // Fresh store + cache instances over the same directory model a new
  // server process: the plan must come off the disk tier, untouched.
  PlanningService second({make_store(tmp), 1, nullptr, disk_cache()});
  const PlanResponse warm = second.plan(req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.plan_source, PlanSource::kCache);
  EXPECT_TRUE(warm.assignment.identical(computed.assignment));
  EXPECT_EQ(second.plan_cache_stats().disk_hits, 1u);
  EXPECT_EQ(second.store_stats().hits + second.store_stats().misses, 0u);
}

TEST(PlanService, TieredFreshL1ServesViaReadThroughWithZeroCaptures) {
  // Two-"process" read-through: a first service populates a shared far
  // tier by write-through; a second service with a fresh, EMPTY near
  // tier must answer the same request with ZERO captures — the trace
  // arrives from the L2 and is promoted, never re-simulated.
  const auto shared_l2 = std::make_shared<opt::MemBackend>();
  PlanRequest req;
  req.scenario = "mpeg2-tiny";
  opt::PartitionPlan first_plan;
  {
    PlanningServiceConfig cfg;
    cfg.store = std::make_shared<opt::TraceStore>(
        std::make_shared<opt::TieredBackend>(
            std::make_shared<opt::MemBackend>(), shared_l2),
        /*read_only=*/false);
    PlanningService writer(std::move(cfg));
    const PlanResponse seeded = writer.plan(req);
    ASSERT_TRUE(seeded.ok) << seeded.error;
    EXPECT_EQ(seeded.captured(), 1u);
    first_plan = seeded.assignment;
  }

  std::atomic<int> captures{0};
  const auto fresh_l1 = std::make_shared<opt::MemBackend>();
  PlanningServiceConfig cfg;
  cfg.store = std::make_shared<opt::TraceStore>(
      std::make_shared<opt::TieredBackend>(fresh_l1, shared_l2,
                                           /*l2_writable=*/false),
      /*read_only=*/false);
  cfg.capture_started = [&](const std::string&) { ++captures; };
  PlanningService reader(std::move(cfg));
  EXPECT_EQ(reader.store_stats().entries, 0u);  // near tier starts empty

  const PlanResponse resp = reader.plan(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.captured(), 0u);
  EXPECT_EQ(resp.store_hits(), 1u);
  EXPECT_EQ(captures.load(), 0);  // no instrumented simulation ran
  EXPECT_TRUE(resp.assignment.identical(first_plan));
  const opt::TraceStore::Stats st = reader.store_stats();
  ASSERT_TRUE(st.tiers.has_value());
  EXPECT_GE(st.tiers->l2_hits, 1u);
  EXPECT_GE(st.tiers->promotions, 1u);
  EXPECT_EQ(st.tiers->l2_writes, 0u);  // the far tier stayed read-only
}

TEST(PlanService, SharedBackendFeedsBothStoreAndPlanCache) {
  // The plan_server wiring: ONE backend behind both the trace store and
  // the plan cache's tier 2, so captures and plans ride the same
  // persistence (and the same tiering) under separate blob kinds.
  const auto backend = std::make_shared<opt::MemBackend>();
  const auto open_pair = [&](PlanningServiceConfig& cfg) {
    cfg.store = open_service_store(backend, core::TraceMode::kReadWrite);
    cfg.plan_cache = open_plan_cache(core::PlanCacheMode::kDisk, backend,
                                     core::TraceMode::kReadWrite);
  };
  PlanRequest req;
  req.scenario = "mpeg2-tiny";

  PlanningServiceConfig cfg;
  open_pair(cfg);
  PlanningService service(std::move(cfg));
  const PlanResponse computed = service.plan(req);
  ASSERT_TRUE(computed.ok) << computed.error;
  EXPECT_EQ(backend->list(opt::BlobKind::kTrace).size(), 1u);
  EXPECT_EQ(backend->list(opt::BlobKind::kPlan).size(), 1u);

  // A fresh service over the same backend models a restart: the request
  // is a pure plan-cache disk hit — the store is never even probed.
  PlanningServiceConfig cfg2;
  open_pair(cfg2);
  PlanningService second(std::move(cfg2));
  const PlanResponse warm = second.plan(req);
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.plan_source, PlanSource::kCache);
  EXPECT_TRUE(warm.assignment.identical(computed.assignment));
  EXPECT_EQ(second.plan_cache_stats().disk_hits, 1u);
  EXPECT_EQ(second.store_stats().hits + second.store_stats().misses, 0u);
}

TEST(PlanService, ConcurrentMixedGridsCoalesceIntoOneUnionSweep) {
  TempDir tmp;
  // Disjoint AND overlapping grids; their union is what the one sweep
  // must replay.
  const std::vector<std::vector<std::uint32_t>> grids = {
      {1, 4}, {2, 8}, {4, 8, 16}, {16, 1}};
  const std::vector<std::uint32_t> union_grid = {1, 2, 4, 8, 16};
  const int kClients = static_cast<int>(grids.size());

  PlanningService* svc_ptr = nullptr;
  PlanningServiceConfig cfg;
  cfg.store = make_store(tmp);
  // Deterministic orchestration: whoever leads holds its sweep OPEN until
  // every other client has joined (joiners bump sweeps_coalesced at join
  // time), so this test cannot flake on scheduling. The 10s cap only
  // bounds a genuinely broken build.
  cfg.sweep_sealing = [&svc_ptr, kClients] {
    for (int spin = 0; spin < 10000; ++spin) {
      if (svc_ptr->service_stats().sweeps_coalesced ==
          static_cast<std::uint64_t>(kClients - 1))
        return;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  std::vector<std::vector<std::uint32_t>> swept;
  std::mutex swept_mu;
  cfg.sweep_started = [&](const std::string&,
                          const std::vector<std::uint32_t>& g) {
    std::lock_guard<std::mutex> lk(swept_mu);
    swept.push_back(g);
  };
  PlanningService service(std::move(cfg));
  svc_ptr = &service;

  std::vector<PlanResponse> responses(kClients);
  {
    std::vector<std::thread> pool;
    for (int c = 0; c < kClients; ++c)
      pool.emplace_back([&, c] {
        PlanRequest req;
        req.scenario = "mpeg2-tiny";
        req.grid = grids[c];
        responses[c] = service.plan(req);
      });
    for (auto& t : pool) t.join();
  }

  // Exactly ONE replay sweep, over exactly the union grid.
  const ServiceStats stats = service.service_stats();
  EXPECT_EQ(stats.sweeps_started, 1u);
  EXPECT_EQ(stats.sweeps_coalesced, static_cast<std::uint64_t>(kClients - 1));
  ASSERT_EQ(swept.size(), 1u);
  EXPECT_EQ(swept[0], union_grid);
  // 2 + 2 + 3 + 2 requested points replayed as 5 union points.
  EXPECT_EQ(stats.union_points_saved, 9u - union_grid.size());

  int leaders = 0, followers = 0;
  for (const PlanResponse& r : responses) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.union_points, union_grid.size());
    if (r.sweep == SweepRole::kLeader)
      ++leaders;
    else if (r.sweep == SweepRole::kCoalesced)
      ++followers;
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_EQ(followers, kClients - 1);

  // BIT-IDENTITY: each coalesced response must match what an uncoalesced
  // service (fresh instance, same store, no hooks) computes for the same
  // grid — through plan_response_digest, so every assignment entry,
  // expected-miss double and prediction is compared bit-for-bit.
  PlanningService direct({make_store(tmp), 1, nullptr, nullptr});
  for (int c = 0; c < kClients; ++c) {
    PlanRequest req;
    req.scenario = "mpeg2-tiny";
    req.grid = grids[c];
    const PlanResponse ref = direct.plan(req);
    ASSERT_TRUE(ref.ok) << ref.error;
    EXPECT_EQ(ref.sweep, SweepRole::kLeader);
    EXPECT_EQ(plan_response_digest(responses[c]), plan_response_digest(ref))
        << "grid index " << c;
  }
  EXPECT_EQ(direct.service_stats().sweeps_coalesced, 0u);
}

TEST(PlanService, CoalescingStressBitIdenticalUnderLoad) {
  // The TSan target: several rounds of mixed-grid bursts with a real
  // merge window and no orchestration hooks — scheduling decides who
  // leads, who joins and who opens a second sweep; every answer must
  // still be bit-identical to the uncoalesced reference. (The exact
  // sweep count is NOT asserted here — that is the hook-orchestrated
  // test's and the socket bench's job.)
  TempDir tmp;
  const std::vector<std::vector<std::uint32_t>> grids = {
      {1, 2, 4, 8, 16}, {1, 4, 16}, {2, 8}, {4, 8, 16}};

  PlanningService reference({make_store(tmp), 1, nullptr, nullptr});
  std::vector<std::string> want;
  for (const auto& g : grids) {
    PlanRequest req;
    req.scenario = "mpeg2-tiny";
    req.grid = g;
    const PlanResponse r = reference.plan(req);
    ASSERT_TRUE(r.ok) << r.error;
    want.push_back(plan_response_digest(r));
  }

  PlanningServiceConfig cfg;
  cfg.store = make_store(tmp);
  cfg.coalesce_window_ms = 5.0;
  PlanningService service(std::move(cfg));
  constexpr int kRounds = 3;
  constexpr int kThreads = 8;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<PlanResponse> responses(kThreads);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
      pool.emplace_back([&, t] {
        PlanRequest req;
        req.scenario = "mpeg2-tiny";
        req.grid = grids[t % grids.size()];
        responses[t] = service.plan(req);
      });
    for (auto& t : pool) t.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_TRUE(responses[t].ok) << responses[t].error;
      EXPECT_EQ(plan_response_digest(responses[t]), want[t % grids.size()])
          << "round " << round << " thread " << t;
    }
  }
  const ServiceStats stats = service.service_stats();
  EXPECT_GE(stats.sweeps_started, 1u);
  EXPECT_EQ(stats.sweeps_started + stats.sweeps_coalesced,
            static_cast<std::uint64_t>(kRounds * kThreads));
}

TEST(PlanService, AdaptiveWindowSealsEarlyForLoneRequests) {
  // BUGFIX regression: a fixed coalesce window made every cache-missing
  // sweep's leader sleep out the WHOLE window even when no other request
  // existed — a lone request against a 10s window paid 10s of pure
  // latency. The window now adapts to the arrival rate: no join for a
  // quiet gap (window/4, clamped to [1,50] ms) seals the sweep early, so
  // a lone request pays roughly the gap while a burst still merges.
  TempDir tmp;
  PlanningServiceConfig cfg;
  cfg.store = make_store(tmp);
  cfg.coalesce_window_ms = 10000.0;  // fixed-hold behavior would take 10s
  PlanningService service(std::move(cfg));

  PlanRequest req;
  req.scenario = "mpeg2-tiny";
  const PlanResponse resp = service.plan(req);
  ASSERT_TRUE(resp.ok) << resp.error;
  EXPECT_EQ(resp.sweep, SweepRole::kLeader);
  // Sealed early: far below the window (generous bound — the gap is
  // 50 ms; seconds here would mean the fixed hold is back).
  EXPECT_LT(resp.total_ms, 5000.0);
  const ServiceStats stats = service.service_stats();
  EXPECT_EQ(stats.sweeps_started, 1u);
  EXPECT_EQ(stats.sweeps_sealed_early, 1u);

  // Same answer as an unwindowed service — the window trades latency
  // only, never the response.
  PlanningService direct({make_store(tmp), 1, nullptr, nullptr});
  const PlanResponse ref = direct.plan(req);
  ASSERT_TRUE(ref.ok) << ref.error;
  EXPECT_EQ(plan_response_digest(resp), plan_response_digest(ref));
}

TEST(PlanService, DuplicateGridSizesAreRejectedAsRequestErrors) {
  TempDir tmp;
  PlanningService service({make_store(tmp), 1, nullptr, nullptr});
  PlanRequest req;
  req.scenario = "mpeg2-tiny";
  req.grid = {4, 2, 4};
  const PlanResponse resp = service.plan(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("duplicate size 4"), std::string::npos)
      << resp.error;

  // A scenario's DEFAULT grid gets the same checks as a request's.
  static std::once_flag once;
  std::call_once(once, [] {
    core::ScenarioSpec spec = core::scenarios().get("mpeg2-tiny");
    spec.name = "svc-dup-grid";
    spec.description = "mpeg2-tiny whose default grid repeats a size";
    spec.experiment.trace_key += "/dup-grid";
    spec.experiment.profile_grid = {1, 8, 2, 8};
    core::scenarios().add(std::move(spec));
  });
  PlanRequest dflt;
  dflt.scenario = "svc-dup-grid";
  const PlanResponse dup = service.plan(dflt);
  EXPECT_FALSE(dup.ok);
  EXPECT_NE(dup.error.find("scenario 'svc-dup-grid' grid contains duplicate "
                           "size 8"),
            std::string::npos)
      << dup.error;
  EXPECT_EQ(dup.captures.size(), 0u);  // refused before any capture
}

/// Builds of the "svc-counting" scenario's application (mpeg2-tiny
/// content under its own trace key).
std::atomic<int> counted_builds{0};

void register_counting_scenario() {
  static std::once_flag once;
  std::call_once(once, [] {
    core::ScenarioSpec spec = core::scenarios().get("mpeg2-tiny");
    spec.name = "svc-counting";
    spec.description = "mpeg2-tiny with a build-counting factory";
    spec.experiment.trace_key += "/counting";
    spec.factory = [inner = spec.factory] {
      ++counted_builds;
      return inner();
    };
    core::scenarios().add(std::move(spec));
  });
}

TEST(PlanService, RequestsBuildTheAppOnlyForInventoryAndCaptures) {
  register_counting_scenario();
  TempDir tmp;
  PlanRequest req;
  req.scenario = "svc-counting";
  req.runs = 2;
  {
    PlanningService service({make_store(tmp), 1, nullptr, nullptr});
    counted_builds = 0;
    const PlanResponse cold = service.plan(req);
    ASSERT_TRUE(cold.ok) << cold.error;
    EXPECT_EQ(cold.captured(), 2u);
    EXPECT_EQ(counted_builds.load(), 3);  // inventory + two captures

    counted_builds = 0;
    const PlanResponse warm = service.plan(req);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.store_hits(), 2u);
    EXPECT_EQ(counted_builds.load(), 1);  // inventory only
  }

  PlanningServiceConfig cfg;
  cfg.store = make_store(tmp);
  cfg.plan_cache = std::make_shared<opt::PlanCache>(opt::PlanCache::Config{});
  PlanningService service(std::move(cfg));
  ASSERT_TRUE(service.plan(req).ok);
  counted_builds = 0;
  const PlanResponse hit = service.plan(req);
  ASSERT_TRUE(hit.ok) << hit.error;
  EXPECT_EQ(hit.plan_source, PlanSource::kCache);
  EXPECT_EQ(counted_builds.load(), 0);  // a cache hit builds nothing
}

TEST(PlanProtocol, ParsesFullRequests) {
  PlanRequest req;
  std::string err;
  ASSERT_TRUE(parse_plan_request("mpeg2-tiny grid=1,2,8 runs=2 l2=32768 "
                                 "eps=0.5",
                                 req, err))
      << err;
  EXPECT_EQ(req.scenario, "mpeg2-tiny");
  EXPECT_EQ(req.grid, (std::vector<std::uint32_t>{1, 2, 8}));
  ASSERT_TRUE(req.runs.has_value());
  EXPECT_EQ(*req.runs, 2u);
  ASSERT_TRUE(req.l2_size_bytes.has_value());
  EXPECT_EQ(*req.l2_size_bytes, 32768u);
  ASSERT_TRUE(req.curvature_eps.has_value());
  EXPECT_EQ(*req.curvature_eps, 0.5);

  PlanRequest bare;
  ASSERT_TRUE(parse_plan_request("jpeg-canny", bare, err)) << err;
  EXPECT_EQ(bare.scenario, "jpeg-canny");
  EXPECT_TRUE(bare.grid.empty());
  EXPECT_FALSE(bare.curvature_eps.has_value());
}

TEST(PlanProtocol, RejectsMalformedValues) {
  const auto fails = [](const std::string& line) {
    PlanRequest req;
    std::string err;
    const bool ok = parse_plan_request(line, req, err);
    EXPECT_FALSE(ok) << line << " parsed unexpectedly";
    return err;
  };
  EXPECT_NE(fails("").find("scenario"), std::string::npos);
  EXPECT_NE(fails("s grid=1,x,2").find("grid"), std::string::npos);
  EXPECT_NE(fails("s grid=").find("grid"), std::string::npos);
  for (const char* empty_field :
       {"s grid=4,", "s grid=4,8,", "s grid=4,,8", "s grid=,4"})
    EXPECT_EQ(fails(empty_field), "bad grid value '' (plain decimal expected)")
        << empty_field;
  EXPECT_NE(fails("s runs=+2").find("runs"), std::string::npos);
  EXPECT_NE(fails("s l2=64k").find("l2"), std::string::npos);
  EXPECT_NE(fails("s bogus=1").find("unknown option"), std::string::npos);
}

TEST(PlanProtocol, RejectsNonFiniteAndNegativeEps) {
  // BUGFIX regression: strtod happily parses all of these; "-1" would
  // silently alias the auto-tune sentinel (kAutoCurvatureEps) instead of
  // erroring, and nan/inf would poison the planner and plan-cache key.
  for (const char* bad :
       {"s eps=-1", "s eps=-0.5", "s eps=nan", "s eps=NaN", "s eps=inf",
        "s eps=-inf", "s eps=1e999", "s eps=", "s eps=0.5x"}) {
    PlanRequest req;
    std::string err;
    EXPECT_FALSE(parse_plan_request(bad, req, err)) << bad;
    EXPECT_NE(err.find("eps"), std::string::npos) << bad << ": " << err;
  }
  // Zero and positive finite values are legal.
  for (const char* good : {"s eps=0", "s eps=0.05", "s eps=2"}) {
    PlanRequest req;
    std::string err;
    EXPECT_TRUE(parse_plan_request(good, req, err)) << good << ": " << err;
  }
}

TEST(PlanProtocol, RejectsRepeatedOptions) {
  // Last-one-wins would silently serve a different plan than the client
  // meant (and which one "wins" would be an accident of parse order), so
  // every repeat is an explicit request error naming the key.
  for (const char* bad :
       {"s grid=1,2 grid=4", "s runs=1 runs=2", "s l2=32768 l2=65536",
        "s eps=0.1 eps=0.1", "s deadline_ms=5 deadline_ms=5",
        "s grid=1 runs=2 grid=1"}) {
    PlanRequest req;
    std::string err;
    EXPECT_FALSE(parse_plan_request(bad, req, err)) << bad;
    EXPECT_NE(err.find("repeated option"), std::string::npos)
        << bad << ": " << err;
  }
  // A repeat of one key must not poison a different key.
  PlanRequest req;
  std::string err;
  EXPECT_TRUE(parse_plan_request("s grid=1,2 runs=2", req, err)) << err;
}

// A remote peer writes the whole request line. Truncations, byte
// mutations and token shuffles of valid lines must each parse, fail with
// a message, or throw std::runtime_error: nothing else.
TEST(PlanProtocolFuzz, MutatedRequestLinesParseOrFail) {
  const std::vector<std::string> valid = {
      "mpeg2-tiny grid=1,2,4,8 runs=2 l2=32768 eps=0.01 deadline_ms=250",
      "stream-tiny phases=all deadline_ms=5",
      "jpeg-canny-dense grid=4,12 eps=0",
  };
  const std::string alphabet = " =,.-0123456789eginrs";
  Rng rng(0x9A55EEDull);  // deterministic: any failure reproduces
  std::size_t parsed = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string line = valid[rng.below(valid.size())];
    switch (rng.below(3)) {
      case 0:
        line.resize(rng.below(line.size()));
        break;
      case 1:
        for (std::uint64_t f = 1 + rng.below(4); f > 0; --f)
          line[rng.below(line.size())] =
              rng.chance(0.7) ? alphabet[rng.below(alphabet.size())]
                              : static_cast<char>(rng.below(256));
        break;
      default: {
        std::vector<std::string> tokens;
        std::istringstream in(line);
        for (std::string t; in >> t;) tokens.push_back(t);
        if (rng.chance(0.3))
          tokens.push_back(tokens[rng.below(tokens.size())]);
        if (rng.chance(0.3))
          tokens.erase(tokens.begin() + static_cast<std::ptrdiff_t>(
                                            rng.below(tokens.size())));
        for (std::size_t t = tokens.size(); t > 1; --t)
          std::swap(tokens[t - 1], tokens[rng.below(t)]);
        line.clear();
        for (const std::string& t : tokens)
          line += (line.empty() ? "" : " ") + t;
        break;
      }
    }
    PlanRequest req;
    std::string err;
    try {
      if (parse_plan_request(line, req, err))
        ++parsed;
      else
        EXPECT_FALSE(err.empty()) << "round " << i << ": '" << line << "'";
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "round " << i << ": '" << line
                    << "' threw a non-runtime_error: " << e.what();
    }
  }
  EXPECT_GT(parsed, 0u);
}

TEST(PlanProtocol, ParsesPhasedRequests) {
  PlanRequest req;
  std::string err;
  ASSERT_TRUE(parse_plan_request("stream-tiny phases=all", req, err)) << err;
  EXPECT_EQ(req.scenario, "stream-tiny");
  EXPECT_TRUE(req.phases);

  PlanRequest bare;
  ASSERT_TRUE(parse_plan_request("stream-tiny", bare, err)) << err;
  EXPECT_FALSE(bare.phases);

  // Only the explicit form is accepted — a future "phases=0,2" must not
  // silently mean something else today.
  for (const char* bad : {"s phases=", "s phases=1", "s phases=0,2",
                          "s phases=ALL", "s phases"}) {
    PlanRequest r;
    EXPECT_FALSE(parse_plan_request(bad, r, err)) << bad;
    EXPECT_NE(err.find("phases"), std::string::npos) << bad << ": " << err;
  }
  PlanRequest repeated;
  EXPECT_FALSE(
      parse_plan_request("s phases=all phases=all", repeated, err));
  EXPECT_NE(err.find("repeated option"), std::string::npos) << err;
}

TEST(PlanProtocol, ParsesAdmissionDeadline) {
  PlanRequest req;
  std::string err;
  ASSERT_TRUE(parse_plan_request("mpeg2-tiny deadline_ms=250", req, err))
      << err;
  ASSERT_TRUE(req.deadline_ms.has_value());
  EXPECT_EQ(*req.deadline_ms, 250u);

  PlanRequest bare;
  ASSERT_TRUE(parse_plan_request("mpeg2-tiny", bare, err)) << err;
  EXPECT_FALSE(bare.deadline_ms.has_value());

  for (const char* bad : {"s deadline_ms=", "s deadline_ms=-1",
                          "s deadline_ms=5s", "s deadline_ms=1e3"}) {
    PlanRequest r;
    EXPECT_FALSE(parse_plan_request(bad, r, err)) << bad;
    EXPECT_NE(err.find("deadline_ms"), std::string::npos)
        << bad << ": " << err;
  }
}

TEST(PlanProtocol, JsonEscapeLeavesNoRawControlBytes) {
  // plan_server echoes request bytes inside its JSON error and scenario
  // strings; a raw control byte there makes the whole line invalid JSON.
  EXPECT_EQ(json_escape("plan no\x02such"), "plan no\\u0002such");
  EXPECT_EQ(json_escape("runs=\x01x\t\r\x1f"),
            "runs=\\u0001x\\u0009\\u000d\\u001f");
  EXPECT_EQ(json_escape("a\"b\\c\nd\x7f\xc3\xa9"),
            "a\\\"b\\\\c\\nd\x7f\xc3\xa9");
  std::string every;
  for (int c = 1; c < 0x20; ++c) every += static_cast<char>(c);
  for (const char c : json_escape(every))
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
}

TEST(PlanProtocol, ResponseDigestSeparatesAnswersBitForBit) {
  // The JSON wire rounds floats for humans; plan_response_digest is the
  // machine-grade identity the coalescing bench compares. It must be
  // stable across identical responses and move on ANY bit of the
  // assignment, totals or predictions — including a double changed past
  // the JSON rounding.
  PlanResponse a;
  a.scenario = "s";
  a.assignment.feasible = true;
  a.assignment.total_sets = 64;
  a.assignment.used_sets = 48;
  a.assignment.expected_task_misses = 123.25;
  opt::PlanEntry e;
  e.name = "task0";
  e.is_task = true;
  e.sets = 16;
  e.expected_misses = 100.5;
  e.partition.base_set = 0;
  e.partition.num_sets = 16;
  a.assignment.entries.push_back(e);
  a.tasks.push_back(PlanResponse::TaskPrediction{"task0", 16, 100.5, 2e6});

  PlanResponse b = a;
  EXPECT_EQ(plan_response_digest(a), plan_response_digest(b));

  b.assignment.entries[0].expected_misses =
      std::nextafter(100.5, std::numeric_limits<double>::infinity());
  EXPECT_NE(plan_response_digest(a), plan_response_digest(b));

  PlanResponse c = a;
  c.assignment.entries[0].partition.base_set = 1;
  EXPECT_NE(plan_response_digest(a), plan_response_digest(c));

  PlanResponse d = a;
  d.tasks[0].predicted_cycles = 2e6 + 1;
  EXPECT_NE(plan_response_digest(a), plan_response_digest(d));
}

}  // namespace
}  // namespace cms::svc
