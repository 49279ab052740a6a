// Planning-service microbenchmark (acceptance check for the svc layer):
// for every built-in scenario, drive svc::PlanningService through a COLD
// request (captures simulated + written back), a WARM request through a
// FRESH service + store instance over the same directory (every capture
// served from disk, zero simulations), a CONCURRENT phase (N client
// threads hammering the warm endpoint), and a PLAN-CACHED pass: one
// service computes + memoizes the plan, then a fresh service + cache
// instance over the same directory (a process restart, disk tier) must
// answer from the cache alone — zero captures, zero store loads, zero
// MCKP solves — with an assignment and predictions bit-identical to the
// computed ones. Verifies that every response succeeds, that all
// assignments are bit-identical to each other and to a direct
// store-served Experiment plan (opt::PartitionPlan::identical), that the
// warm pass never captures, and that the plan-cached service answers
// every request from the cache (plan_cache_hits == requests). Reports
// cold/warm/cached latency with the per-phase breakdown and
// concurrent-client throughput as JSON; exits nonzero on any failed
// response, assignment mismatch, warm capture or plan-cache miss.
//
//   ./micro_plan_service [--jobs N] [--quick] [--trace-dir DIR]
//                        [--trace off|ro|rw] [--service-clients N]
//                        [--service-budget-bytes N]
//                        [--service-budget-entries N]
//                        [--plan-cache off|mem|disk]
//                        [--plan-cache-budget-bytes N]
//                        [--plan-cache-budget-entries N]
//   {"bench": "micro_plan_service", "trace_dir": "...", "scenarios": [
//    {"scenario": "mpeg2-tiny", "ok": true, "identical": true,
//     "cold_ms": {"capture": ..., "profile": ..., "plan": ..., "total": ...},
//     "warm_ms": {...}, "warm_captured": 0,
//     "concurrent": {"clients": 4, "requests": 12, "wall_ms": ...,
//                    "req_per_s": ...},
//     "plan_cache": {"source": "cache", "cached_total_ms": ...,
//                    "hits": ..., "disk_hits": ...},
//     "store": {"hits": ..., "writes": ..., "evictions": ...}}, ...],
//    "ok": true}
//
// Flags: --jobs N                  campaign workers per request
//        --quick                   tiny scenarios only (TSan/CI smoke)
//        --trace-dir D             store dir (default micro_plan_service.traces)
//        --trace MODE              off|ro|rw (off is rejected; default rw)
//        --store-l2-dir D          far store tier: every service instance
//                                  gets its own L1-over-D tiered store
//        --store-l2 MODE           off|ro|rw far-tier mode (default rw)
//        --service-clients N       concurrent client threads (default 4)
//        --service-budget-bytes N  store byte budget (0 = unlimited)
//        --service-budget-entries N  store entry budget (0 = unlimited)
//        --plan-cache MODE         off|mem|disk (default disk)
//        --plan-cache-budget-*     per-tier cache budgets (0 = unlimited)
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/scenario.hpp"
#include "svc/planning_service.hpp"

using namespace cms;

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_jobs(argc, argv, 1);
  const bool quick = bench::has_flag(argc, argv, "--quick");
  const unsigned clients = core::parse_service_clients(argc, argv, 4);
  std::string dir = bench::parse_trace_dir(argc, argv);
  if (dir.empty()) dir = "micro_plan_service.traces";
  const core::TraceMode mode = bench::parse_trace_mode(argc, argv);
  if (mode == core::TraceMode::kOff) {
    std::fprintf(stderr, "micro_plan_service needs a store (--trace=off?)\n");
    return 1;
  }
  const std::string l2_target = bench::parse_store_l2_target(argc, argv);
  const core::StoreL2Mode l2 = bench::parse_store_l2(argc, argv);
  const opt::TraceStore::Capacity capacity{
      core::parse_u64_flag(argc, argv, "--service-budget-bytes"),
      core::parse_u64_flag(argc, argv, "--service-budget-entries")};
  const core::PlanCacheMode cache_mode = core::parse_plan_cache(argc, argv);
  const opt::TraceStore::Capacity cache_budget{
      core::parse_u64_flag(argc, argv, "--plan-cache-budget-bytes"),
      core::parse_u64_flag(argc, argv, "--plan-cache-budget-entries")};

  // Each service instance composes its own backend over the shared dirs —
  // fresh instances model separate server processes, tiered when a far
  // tier is given: a directory, or a tcp:// blob_server endpoint
  // (captures AND .cmsplan entries read through either way).
  const auto make_backend = [&] {
    return core::open_store_backend(dir, mode, l2_target, l2);
  };
  const auto open_store = [&] {
    return svc::open_service_store(make_backend(), mode, capacity);
  };

  std::vector<std::string> names;
  if (quick)
    names = {"jpeg-canny-tiny", "mpeg2-tiny", "mpeg2-tiny-rand"};
  else
    names = core::scenarios().names();

  bool all_ok = true;
  std::printf(
      "{\"bench\": \"micro_plan_service\", \"trace_dir\": \"%s\", "
      "\"jobs\": %u, \"scenarios\": [",
      dir.c_str(), jobs);
  for (std::size_t s = 0; s < names.size(); ++s) {
    svc::PlanRequest req;
    req.scenario = names[s];

    // Cold: captures run (or, on a reused --trace-dir, hit a prior pass).
    svc::PlanningService cold_service({open_store(), jobs, nullptr, nullptr});
    const svc::PlanResponse cold = cold_service.plan(req);

    // Warm: a FRESH service + store instance over the same directory —
    // models a new server process; every capture must come off disk.
    svc::PlanningService warm_service({open_store(), jobs, nullptr, nullptr});
    const svc::PlanResponse warm = warm_service.plan(req);

    // Reference: a direct store-served Experiment plan, same spec.
    const core::Experiment direct = core::scenarios().make_experiment(
        names[s], jobs, core::ProfilerMode::kTraceReplay, open_store());
    const opt::PartitionPlan direct_plan = direct.plan(direct.profile());

    // Concurrent phase: `clients` threads re-request the warm scenario.
    const unsigned per_client = quick ? 2 : 3;
    std::vector<svc::PlanResponse> conc(clients * per_client);
    const auto t0 = std::chrono::steady_clock::now();
    {
      std::vector<std::thread> pool;
      pool.reserve(clients);
      for (unsigned c = 0; c < clients; ++c)
        pool.emplace_back([&, c] {
          for (unsigned r = 0; r < per_client; ++r)
            conc[c * per_client + r] = warm_service.plan(req);
        });
      for (auto& t : pool) t.join();
    }
    const double conc_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
    // Sweep-coalescing provenance of the concurrent phase: identical
    // concurrent requests either hit the plan cache or fold into shared
    // union sweeps (responses stay bit-identical either way — checked
    // below like every other response).
    const svc::ServiceStats warm_stats = warm_service.service_stats();

    // Plan-cached pass: one service computes and memoizes, then a fresh
    // service + cache over the same directory (a process restart when the
    // disk tier is on) must answer from the cache alone. Over a
    // read-only store the cache cannot persist either, so the memo is
    // shared in-process instead of reopened.
    svc::PlanResponse primed, cached;
    opt::PlanCache::Stats cached_stats;
    std::uint64_t cached_requests = 0, cached_hits = 0;
    if (cache_mode != core::PlanCacheMode::kOff) {
      // Each service shares ONE backend between its store and its cache's
      // disk tier, like plan_server does.
      const auto prime_backend = make_backend();
      const auto cache =
          svc::open_plan_cache(cache_mode, prime_backend, mode, cache_budget);
      svc::PlanningService prime_service(
          {svc::open_service_store(prime_backend, mode, capacity), jobs,
           nullptr, cache});
      primed = prime_service.plan(req);
      const bool restart = cache_mode == core::PlanCacheMode::kDisk &&
                           mode != core::TraceMode::kReadOnly;
      const auto cached_backend = make_backend();
      svc::PlanningService cached_service(
          {svc::open_service_store(cached_backend, mode, capacity), jobs,
           nullptr,
           restart ? svc::open_plan_cache(cache_mode, cached_backend, mode,
                                          cache_budget)
                   : cache});
      cached = cached_service.plan(req);
      cached_stats = cached_service.plan_cache_stats();
      cached_requests = cached_service.service_stats().requests;
      cached_hits = cached_service.service_stats().plan_cache_hits;
    }

    bool ok = cold.ok && warm.ok;
    bool identical = warm.assignment.identical(cold.assignment) &&
                     warm.assignment.identical(direct_plan);
    for (const auto& r : conc) {
      ok = ok && r.ok;
      identical = identical && r.assignment.identical(cold.assignment);
    }
    if (cache_mode != core::PlanCacheMode::kOff) {
      // The cached response must be a pure lookup (no capture, no store
      // load, no solve) and bit-identical to the computed one —
      // predictions included.
      ok = ok && primed.ok && cached.ok &&
           cached.plan_source == svc::PlanSource::kCache &&
           cached.captured() == 0 && cached.store_hits() == 0 &&
           cached.profile_ms == 0.0 && cached.plan_ms == 0.0 &&
           cached_hits == cached_requests && cached_requests == 1;
      identical = identical && cached.assignment.identical(cold.assignment) &&
                  cached.assignment.identical(primed.assignment);
      bool predictions_match = cached.tasks.size() == primed.tasks.size();
      for (std::size_t i = 0; predictions_match && i < cached.tasks.size();
           ++i) {
        const auto& a = cached.tasks[i];
        const auto& b = primed.tasks[i];
        predictions_match = a.name == b.name && a.sets == b.sets &&
                            a.predicted_misses == b.predicted_misses &&
                            a.predicted_cycles == b.predicted_cycles;
      }
      ok = ok && predictions_match;
    }
    const std::uint64_t warm_captured = warm.captured();
    // A read-only store cannot persist the cold pass's captures, so the
    // zero-warm-capture criterion only holds when the directory was
    // prewarmed — enforce it in rw mode (the identity checks above always
    // apply).
    ok = ok && identical &&
         (warm_captured == 0 || mode == core::TraceMode::kReadOnly);
    all_ok = all_ok && ok;
    if (!ok)
      std::fprintf(stderr, "micro_plan_service: FAILURE on %s (%s%s)\n",
                   names[s].c_str(),
                   cold.ok ? "" : cold.error.c_str(),
                   warm.ok ? "" : warm.error.c_str());

    const opt::TraceStore::Stats st = warm_service.store_stats();
    std::printf(
        "%s{\"scenario\": \"%s\", \"ok\": %s, \"identical\": %s, "
        "\"cold_ms\": {\"capture\": %.1f, \"profile\": %.1f, \"plan\": %.1f, "
        "\"total\": %.1f}, "
        "\"warm_ms\": {\"capture\": %.1f, \"profile\": %.1f, \"plan\": %.1f, "
        "\"total\": %.1f}, \"warm_captured\": %llu, "
        "\"concurrent\": {\"clients\": %u, \"requests\": %zu, "
        "\"wall_ms\": %.1f, \"req_per_s\": %.1f, "
        "\"sweeps_started\": %llu, \"sweeps_coalesced\": %llu, "
        "\"union_points_saved\": %llu}, "
        "\"plan_cache\": {\"source\": \"%s\", \"cached_total_ms\": %.2f, "
        "\"lookup_ms\": %.2f, \"hits\": %llu, \"disk_hits\": %llu}, "
        "\"store\": {\"hits\": %llu, \"writes\": %llu, \"evictions\": %llu, "
        "\"entries\": %llu, \"bytes\": %llu}}",
        s ? ", " : "", names[s].c_str(), ok ? "true" : "false",
        identical ? "true" : "false", cold.capture_ms, cold.profile_ms,
        cold.plan_ms, cold.total_ms, warm.capture_ms, warm.profile_ms,
        warm.plan_ms, warm.total_ms,
        static_cast<unsigned long long>(warm_captured), clients, conc.size(),
        conc_ms, conc_ms > 0 ? 1000.0 * static_cast<double>(conc.size()) /
                                   conc_ms
                             : 0.0,
        static_cast<unsigned long long>(warm_stats.sweeps_started),
        static_cast<unsigned long long>(warm_stats.sweeps_coalesced),
        static_cast<unsigned long long>(warm_stats.union_points_saved),
        cache_mode == core::PlanCacheMode::kOff
            ? "off"
            : svc::to_string(cached.plan_source),
        cached.total_ms, cached.plan_cache_ms,
        static_cast<unsigned long long>(cached_stats.hits),
        static_cast<unsigned long long>(cached_stats.disk_hits),
        static_cast<unsigned long long>(st.hits),
        static_cast<unsigned long long>(st.writes),
        static_cast<unsigned long long>(st.evictions),
        static_cast<unsigned long long>(st.entries),
        static_cast<unsigned long long>(st.bytes));
  }
  std::printf("], \"ok\": %s}\n", all_ok ? "true" : "false");
  return all_ok ? 0 : 1;
}
