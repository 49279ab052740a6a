// Trace-store round-trip microbenchmark (acceptance check for the
// persistent capture store): for every built-in scenario, profile with
// trace replay three ways — in-memory captures, a COLD store pass
// (capture + write-back), and a WARM pass through a fresh store instance
// (every capture loaded from disk) — and verify all profiles are
// bit-identical to each other and (non---quick) to profile_reference().
// Reports wall-clock per pass, store hit/miss/write counts and on-disk
// bytes per scenario. Exits nonzero on any profile mismatch, on a warm
// pass that missed the store, or — with --expect-hits — on a cold pass
// that missed (CI runs the bench twice against the same --trace-dir; the
// second run must be served entirely from disk, and the TSan job replays
// the same directory read-only from another process).
//
//   ./micro_trace_store [--jobs N] [--quick] [--trace-dir DIR]
//                       [--trace off|ro|rw] [--expect-hits] [--full]
//   {"bench": "micro_trace_store", "trace_dir": "...", "scenarios": [
//    {"scenario": "mpeg2-tiny", "identical": true,
//     "ms": {"fullsim": ..., "replay_mem": ..., "cold": ..., "warm": ...},
//     "store": {"cold_hits": 0, "cold_misses": 1, "writes": 1,
//               "warm_hits": 1, "warm_misses": 0}, "bytes": 123456}, ...],
//    "identical": true, "all_hits": false}
//
// With a far tier the store is TIERED: --trace-dir is the L1 of an
// opt::TieredBackend over the far target — a directory
// (--store-l2-dir DIR) or a blob_server daemon over TCP
// (--store-l2 tcp://host:port) — and a fourth L2-ONLY-WARM pass runs
// per scenario: a fresh, EMPTY L1 (trace-dir + ".l2only", wiped at
// startup) over the same L2, so every capture must arrive by
// read-through from the far tier. Exits 4 if that pass missed; per-tier
// counters (l1/l2 hits, promotions, promotion failures, write-throughs)
// join the JSON. A tcp:// far tier additionally emits round-trip
// counters ("net": rpc count/failures/retries/reconnects and total/max
// latency ms aggregated over every store instance of the run).
//
// --expect-l2-errors flips the far-tier assertions for fault-injection
// CI (daemon killed mid-run): the L2-only pass is ALLOWED to miss
// (captures regenerate live), but the run must have OBSERVED L2 errors —
// exit 5 if it degraded without logging any, since then the fault never
// actually fired.
//
// Flags: --jobs N       campaign workers (0 = hardware)
//        --quick        tiny scenarios only, no fullsim arm (TSan/CI smoke)
//        --trace-dir D  store directory (default micro_trace_store.traces)
//        --trace MODE   off|ro|rw store mode (default rw)
//        --store-l2-dir T  far tier: directory or tcp://host:port
//        --store-l2 MODE   off|ro|rw far-tier mode, or tcp://host:port
//                          (implies rw against that endpoint)
//        --expect-hits  fail unless the cold pass was all store hits
//        --expect-l2-errors  tolerate L2-only misses; require l2_errors > 0
//        --full         force the fullsim identity arm even with --quick
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/scenario.hpp"
#include "opt/net_backend.hpp"
#include "opt/store_backend.hpp"
#include "opt/trace_store.hpp"

using namespace cms;

namespace {

template <typename Fn>
double wall_ms(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

std::uintmax_t dir_bytes(const std::string& dir) {
  std::error_code ec;
  std::uintmax_t total = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ec))
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  return total;
}

/// The NetBackend serving as `store`'s far tier, if that's what it is.
std::shared_ptr<opt::NetBackend> net_l2_of(
    const std::shared_ptr<opt::TraceStore>& store) {
  if (!store) return nullptr;
  const auto tiered =
      std::dynamic_pointer_cast<opt::TieredBackend>(store->backend());
  if (!tiered) return nullptr;
  return std::dynamic_pointer_cast<opt::NetBackend>(tiered->l2());
}

/// Running totals of the tcp:// far tier across every store instance
/// (each pass composes its own NetBackend, so aggregate at teardown).
struct NetTotals {
  opt::NetBackend::Counters sum;
  bool any = false;

  void absorb(const std::shared_ptr<opt::TraceStore>& store) {
    const auto net = net_l2_of(store);
    if (!net) return;
    const opt::NetBackend::Counters c = net->counters();
    sum.ops += c.ops;
    sum.failures += c.failures;
    sum.retries += c.retries;
    sum.reconnects += c.reconnects;
    sum.total_ms += c.total_ms;
    if (c.max_ms > sum.max_ms) sum.max_ms = c.max_ms;
    any = true;
  }

  std::string json() const {
    if (!any) return "";
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  ", \"net\": {\"ops\": %llu, \"failures\": %llu, "
                  "\"retries\": %llu, \"reconnects\": %llu, "
                  "\"total_ms\": %.2f, \"max_ms\": %.2f}",
                  static_cast<unsigned long long>(sum.ops),
                  static_cast<unsigned long long>(sum.failures),
                  static_cast<unsigned long long>(sum.retries),
                  static_cast<unsigned long long>(sum.reconnects),
                  sum.total_ms, sum.max_ms);
    return buf;
  }
};

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = bench::parse_jobs(argc, argv, 1);
  const bool quick = bench::has_flag(argc, argv, "--quick");
  const bool expect_hits = bench::has_flag(argc, argv, "--expect-hits");
  const bool full = bench::has_flag(argc, argv, "--full");
  const bool check_fullsim = !quick || full;
  std::string dir = bench::parse_trace_dir(argc, argv);
  if (dir.empty()) dir = "micro_trace_store.traces";
  const core::TraceMode mode = bench::parse_trace_mode(argc, argv);
  if (mode == core::TraceMode::kOff) {
    std::fprintf(stderr, "micro_trace_store needs a store (--trace=off?)\n");
    return 1;
  }
  const std::string l2_target = bench::parse_store_l2_target(argc, argv);
  const core::StoreL2Mode l2 = bench::parse_store_l2(argc, argv);
  const bool tiered = !l2_target.empty() && l2 != core::StoreL2Mode::kOff;
  const bool expect_l2_errors =
      bench::has_flag(argc, argv, "--expect-l2-errors");
  bench::warn_unknown_flags(argc, argv);
  // L2-only-warm pass: a fresh EMPTY L1 over the shared far tier, so
  // every capture must read through. Wiped once up front.
  const std::string l2only_dir = dir + ".l2only";
  if (tiered) std::filesystem::remove_all(l2only_dir);

  std::vector<std::string> names;
  if (quick)
    names = {"jpeg-canny-tiny", "mpeg2-tiny", "mpeg2-tiny-rand"};
  else
    names = core::scenarios().names();

  bool all_identical = true;
  bool cold_all_hits = true;
  bool warm_all_hits = true;
  bool l2only_all_hits = true;
  std::uint64_t l2_errors_total = 0;
  NetTotals net;
  const auto absorb_tiers = [&](const opt::TraceStore::Stats& st) {
    if (st.tiers) l2_errors_total += st.tiers->l2_errors;
  };
  std::printf("{\"bench\": \"micro_trace_store\", \"trace_dir\": \"%s\", "
              "\"scenarios\": [",
              dir.c_str());
  for (std::size_t s = 0; s < names.size(); ++s) {
    // Reference: trace replay with in-memory captures only.
    opt::MissProfile reference;
    const core::Experiment exp_mem =
        core::scenarios().make_experiment(names[s], jobs);
    const double mem_ms = wall_ms([&] { reference = exp_mem.profile(); });

    double fullsim_ms = 0.0;
    bool identical = true;
    if (check_fullsim) {
      opt::MissProfile full;
      fullsim_ms = wall_ms([&] { full = exp_mem.profile_reference(); });
      identical = reference.identical(full);
    }

    // Cold pass: consult the store (first run captures + writes back,
    // repeat runs are served from disk — or read through from the L2
    // when tiered).
    const auto cold_store = core::open_trace_store(dir, mode, l2_target, l2);
    const std::uintmax_t bytes_before = dir_bytes(dir);
    opt::MissProfile cold;
    const core::Experiment exp_cold =
        core::scenarios().make_experiment(names[s], jobs, cold_store);
    const double cold_ms = wall_ms([&] { cold = exp_cold.profile(); });
    const opt::TraceStore::Stats cold_stats = cold_store->stats();
    absorb_tiers(cold_stats);
    net.absorb(cold_store);
    const std::uintmax_t bytes = dir_bytes(dir) - bytes_before;

    // Warm pass: a FRESH store instance over the same directory — every
    // capture must come off disk (the L1 alone can serve it).
    const auto warm_store = core::open_trace_store(dir, mode, l2_target, l2);
    opt::MissProfile warm;
    const core::Experiment exp_warm =
        core::scenarios().make_experiment(names[s], jobs, warm_store);
    const double warm_ms = wall_ms([&] { warm = exp_warm.profile(); });
    const opt::TraceStore::Stats warm_stats = warm_store->stats();
    absorb_tiers(warm_stats);
    net.absorb(warm_store);

    // L2-only-warm pass (tiered only): a fresh EMPTY L1 over the same
    // far tier — zero captures, everything by read-through.
    double l2only_ms = 0.0;
    opt::TraceStore::Stats l2only_stats;
    if (tiered) {
      const auto l2only_store =
          core::open_trace_store(l2only_dir, mode, l2_target, l2);
      opt::MissProfile l2only;
      const core::Experiment exp_l2only =
          core::scenarios().make_experiment(names[s], jobs, l2only_store);
      l2only_ms = wall_ms([&] { l2only = exp_l2only.profile(); });
      l2only_stats = l2only_store->stats();
      absorb_tiers(l2only_stats);
      net.absorb(l2only_store);
      identical = identical && reference.identical(l2only);
      l2only_all_hits = l2only_all_hits && l2only_stats.misses == 0;
    }

    identical = identical && reference.identical(cold) &&
                reference.identical(warm);
    all_identical = all_identical && identical;
    cold_all_hits = cold_all_hits && cold_stats.misses == 0;
    warm_all_hits = warm_all_hits && warm_stats.misses == 0;

    std::printf(
        "%s{\"scenario\": \"%s\", \"identical\": %s, "
        "\"ms\": {\"fullsim\": %.1f, \"replay_mem\": %.1f, \"cold\": %.1f, "
        "\"warm\": %.1f, \"l2only\": %.1f}, "
        "\"store\": {\"cold_hits\": %llu, \"cold_misses\": %llu, "
        "\"writes\": %llu, \"warm_hits\": %llu, \"warm_misses\": %llu, "
        "\"l2only_hits\": %llu, \"l2only_misses\": %llu%s%s}, "
        "\"bytes\": %llu}",
        s ? ", " : "", names[s].c_str(), identical ? "true" : "false",
        fullsim_ms, mem_ms, cold_ms, warm_ms, l2only_ms,
        static_cast<unsigned long long>(cold_stats.hits),
        static_cast<unsigned long long>(cold_stats.misses),
        static_cast<unsigned long long>(cold_stats.writes),
        static_cast<unsigned long long>(warm_stats.hits),
        static_cast<unsigned long long>(warm_stats.misses),
        static_cast<unsigned long long>(l2only_stats.hits),
        static_cast<unsigned long long>(l2only_stats.misses),
        opt::tier_counters_json(cold_stats.tiers, "cold_tiers").c_str(),
        opt::tier_counters_json(l2only_stats.tiers, "l2only_tiers").c_str(),
        static_cast<unsigned long long>(bytes));
  }
  std::printf("], \"identical\": %s, \"all_hits\": %s, \"l2_errors\": %llu%s}\n",
              all_identical ? "true" : "false",
              cold_all_hits ? "true" : "false",
              static_cast<unsigned long long>(l2_errors_total),
              net.json().c_str());

  if (!all_identical) return 1;
  if (!warm_all_hits) return 2;
  if (expect_hits && !cold_all_hits) return 3;
  // Fault-injection runs EXPECT the far tier to fail under them: misses
  // are fine (captures regenerate), but a run that saw no L2 errors at
  // all means the injected fault never fired.
  if (!expect_l2_errors && !l2only_all_hits) return 4;
  if (expect_l2_errors && l2_errors_total == 0) return 5;
  return 0;
}
