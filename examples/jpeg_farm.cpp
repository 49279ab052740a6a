// Domain scenario: a "JPEG decoding farm" — several decoder instances with
// different picture formats sharing one tile, the situation the paper's
// introduction motivates (integrating independently developed media tasks
// without them trashing each other's cache).
//
// Shows task-level integration: add pipelines one by one and watch a
// previously integrated decoder's miss count stay constant under
// partitioning (compositional) but degrade in shared mode.
//
// With `--trace-dir DIR` the farm additionally plans its partitions
// through the store-aware planning service instead of the hand-rolled
// per-decoder budgets: each farm size registers as a scenario
// (jpeg-farm-1..4), the service captures/replays/solves it once, and the
// memoized plan cache (--plan-cache=off|mem|disk, default disk) turns
// every repeat integration sweep into pure lookups — rerun the example
// against the same directory and watch every plan come back
// plan_source=cache in well under a millisecond.
//
// Flags: --trace-dir D              enable service planning, store at D
//        --trace off|ro|rw          store mode (default rw)
//        --jobs N                   campaign workers per request
//        --plan-cache off|mem|disk  memoized plan cache (default disk)
//        --plan-cache-budget-bytes/-entries N   per-tier cache budgets
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/applications.hpp"
#include "apps/codec/shared_tables.hpp"
#include "apps/jpeg/jpeg_kpn.hpp"
#include "common/serialize.hpp"
#include "common/table.hpp"
#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "mem/partitioned_cache.hpp"
#include "sim/engine.hpp"
#include "sim/os.hpp"
#include "sim/platform.hpp"
#include "svc/planning_service.hpp"

using namespace cms;
using apps::JpegSequence;

namespace {

struct FarmRun {
  std::uint64_t decoder1_misses = 0;
  std::uint64_t total_misses = 0;
  bool ok = false;
};

/// The farm's content: different formats per instance, as in the paper's
/// workload. Immutable after first use (magic-static), so concurrent
/// campaign workers may read it freely.
const std::vector<JpegSequence>& farm_sequences() {
  static const std::vector<JpegSequence> seqs = [] {
    std::vector<JpegSequence> v;
    v.push_back(apps::jpeg_encode_sequence(176, 144, 3, 75, 11));
    v.push_back(apps::jpeg_encode_sequence(128, 96, 3, 75, 12));
    v.push_back(apps::jpeg_encode_sequence(96, 80, 3, 75, 13));
    v.push_back(apps::jpeg_encode_sequence(64, 64, 3, 75, 14));
    return v;
  }();
  return seqs;
}

/// Run a farm with `n_decoders` pipelines; returns decoder 1's misses.
FarmRun run_farm(int n_decoders, bool partitioned) {
  kpn::Network net;
  const sim::Region seg = net.make_segment("appl_data", 4096);
  const apps::SharedCodecTables tables(seg, 75);

  const std::vector<JpegSequence>& seqs = farm_sequences();

  std::vector<apps::JpegPipeline> pipes;
  for (int d = 0; d < n_decoders; ++d)
    pipes.push_back(apps::add_jpeg_decoder(
        net, std::to_string(d + 1), seqs[static_cast<std::size_t>(d)], tables));

  sim::PlatformConfig pc;
  pc.hier.num_procs = 4;
  pc.hier.l2.size_bytes = 64 * 1024;
  sim::Platform platform(pc);
  mem::PartitionedCache& l2 = platform.hierarchy().l2();
  for (const auto& b : net.buffers())
    l2.interval_table().add(b.base, b.footprint, b.id);

  if (partitioned) {
    // Fixed per-decoder budget: each pipeline gets the same partitions no
    // matter how many co-runners exist — that is what makes integration
    // compositional.
    std::uint32_t base = 0;
    auto give = [&](mem::ClientId c, std::uint32_t sets) {
      l2.partition_table().assign(c, {base, sets});
      base += sets;
    };
    for (const auto& b : net.buffers())
      give(mem::ClientId::buffer(b.id),
           b.kind == kpn::BufferKind::kFifo ? 4 : 2);
    for (const auto& p : net.processes()) give(mem::ClientId::task(p->id()), 8);
    l2.partition_table().set_default_partition({base, l2.num_sets() - base});
    l2.set_partitioning_enabled(true);
  }

  sim::Os os(sim::SchedPolicy::kMigrating, pc.hier.num_procs);
  sim::TimingEngine engine(platform, os, net.tasks());
  engine.set_buffer_names(net.buffer_names());
  const sim::SimResults res = engine.run();

  FarmRun out;
  out.total_misses = res.l2_misses;
  for (const char* name : {"FrontEnd1", "IDCT1", "Raster1", "BackEnd1"}) {
    const auto* t = res.find_task(name);
    if (t != nullptr) out.decoder1_misses += t->l2.misses;
  }
  out.ok = !res.deadlocked &&
           pipes[0].output->host_data() ==
               apps::jpeg_reference_decode(seqs[0].pictures.back()).pixels();
  return out;
}

// ---- Planning-service integration (--trace-dir) ----

/// The farm as an apps::Application, so the planning service (and the
/// whole Experiment toolchain) can profile and plan it like any other
/// scenario. Verification checks EVERY decoder's output, not just
/// decoder 1's.
apps::Application make_farm_app(int n_decoders) {
  apps::Application app;
  app.name = "jpeg-farm-" + std::to_string(n_decoders);
  app.net = std::make_unique<kpn::Network>();
  app.appl_data = app.net->make_segment("appl_data", 4096);
  app.tables = std::make_unique<apps::SharedCodecTables>(app.appl_data, 75);

  const std::vector<JpegSequence>& seqs = farm_sequences();
  std::vector<const kpn::FrameBuffer*> outputs;
  for (int d = 0; d < n_decoders; ++d)
    outputs.push_back(apps::add_jpeg_decoder(
                          *app.net, std::to_string(d + 1),
                          seqs[static_cast<std::size_t>(d)], *app.tables)
                          .output);

  app.verify = [n_decoders, outputs]() {
    const std::vector<JpegSequence>& s = farm_sequences();
    for (int d = 0; d < n_decoders; ++d)
      if (outputs[static_cast<std::size_t>(d)]->host_data() !=
          apps::jpeg_reference_decode(
              s[static_cast<std::size_t>(d)].pictures.back())
              .pixels())
        return false;
    return true;
  };
  return app;
}

/// Content fingerprint for the farm scenarios' trace keys. Hashing the
/// encoded pictures themselves (format, quality AND payload bytes) means
/// ANY content tweak — a different seed, quality, size or picture count
/// in farm_sequences() — changes the key and invalidates persisted
/// captures, like app_trace_key does for the built-ins.
std::string farm_trace_key(int n_decoders) {
  serialize::ByteWriter w;
  w.svarint(n_decoders);
  const std::vector<JpegSequence>& seqs = farm_sequences();
  for (int d = 0; d < n_decoders; ++d) {
    const JpegSequence& s = seqs[static_cast<std::size_t>(d)];
    w.svarint(static_cast<std::int64_t>(s.pictures.size()));
    for (const apps::JpegStream& p : s.pictures) {
      w.svarint(p.width);
      w.svarint(p.height);
      w.svarint(p.quality);
      w.varint(p.payload.size());
      w.fixed64(serialize::fnv1a64(p.payload.data(), p.payload.size()));
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    serialize::fnv1a64(w.bytes().data(), w.size())));
  return "jpeg-farm-" + std::to_string(n_decoders) + "/" + buf;
}

/// Register jpeg-farm-1..4 (idempotent within the process).
void register_farm_scenarios() {
  for (int n = 1; n <= 4; ++n) {
    core::ScenarioSpec spec;
    spec.name = "jpeg-farm-" + std::to_string(n);
    spec.description = std::to_string(n) + "-decoder JPEG farm, 64 KB L2";
    spec.factory = [n] { return make_farm_app(n); };
    spec.experiment.platform.hier.num_procs = 4;
    spec.experiment.platform.hier.l2.size_bytes = 64 * 1024;
    spec.experiment.profile_grid = {1, 2, 4, 8, 16, 32};
    spec.experiment.profile_runs = 1;
    spec.experiment.trace_key = farm_trace_key(n);
    core::scenarios().add(std::move(spec));
  }
}

std::uint64_t decoder1_misses(const sim::SimResults& res) {
  std::uint64_t misses = 0;
  for (const char* name : {"FrontEnd1", "IDCT1", "Raster1", "BackEnd1"})
    if (const auto* t = res.find_task(name)) misses += t->l2.misses;
  return misses;
}

/// The integration sweep again, but with partitions planned by the
/// service (and memoized by the plan cache) instead of hand-rolled
/// budgets.
int run_service_planned(int argc, char** argv, const std::string& dir) {
  const unsigned jobs = core::parse_jobs(argc, argv, 1);
  const core::TraceMode mode = core::parse_trace_mode(argc, argv);
  if (mode == core::TraceMode::kOff) {
    std::fprintf(stderr, "jpeg_farm: --trace off disables the service\n");
    return 1;
  }
  const core::PlanCacheMode cache_mode = core::parse_plan_cache(argc, argv);
  const opt::TraceStore::Capacity cache_budget{
      core::parse_u64_flag(argc, argv, "--plan-cache-budget-bytes"),
      core::parse_u64_flag(argc, argv, "--plan-cache-budget-entries")};

  register_farm_scenarios();
  // One backend shared by the store and the plan cache's disk tier, the
  // way plan_server wires them.
  const std::shared_ptr<opt::StoreBackend> backend =
      core::open_store_backend(dir, mode);
  svc::PlanningService service(
      {svc::open_service_store(backend, mode), jobs, nullptr,
       svc::open_plan_cache(cache_mode, backend, mode, cache_budget)});

  std::printf("\nService-planned integration sweep (store %s, plan cache "
              "%s):\n",
              dir.c_str(),
              service.plan_cache() == nullptr
                  ? "off"
                  : service.plan_cache()->disk_tier() ? "mem+disk" : "mem");
  Table t({"decoders", "dec1 misses (planned)", "plan source", "plan ms",
           "ok"});
  bool all_ok = true;
  for (int n = 1; n <= 4; ++n) {
    svc::PlanRequest req;
    req.scenario = "jpeg-farm-" + std::to_string(n);
    const svc::PlanResponse resp = service.plan(req);
    if (!resp.ok) {
      std::fprintf(stderr, "jpeg_farm: plan failed for %s: %s\n",
                   req.scenario.c_str(), resp.error.c_str());
      all_ok = false;
      continue;
    }
    const core::Experiment exp =
        core::scenarios().make_experiment(req.scenario, jobs);
    const core::RunOutput out = exp.run_partitioned(resp.assignment);
    const bool ok = resp.assignment.feasible && out.verified &&
                    !out.results.deadlocked;
    all_ok = all_ok && ok;
    t.row()
        .integer(n)
        .integer(static_cast<std::int64_t>(decoder1_misses(out.results)))
        .cell(svc::to_string(resp.plan_source))
        .num(resp.plan_source == svc::PlanSource::kCache
                    ? resp.plan_cache_ms
                    : resp.total_ms)
        .cell(ok ? "yes" : "NO")
        .done();
  }
  t.print();
  const svc::ServiceStats ss = service.service_stats();
  std::printf("service: %llu requests, %llu captured, %llu store hits, "
              "%llu plan-cache hits (rerun against the same --trace-dir "
              "and every plan is a cache hit)\n",
              static_cast<unsigned long long>(ss.requests),
              static_cast<unsigned long long>(ss.captured),
              static_cast<unsigned long long>(ss.store_hits),
              static_cast<unsigned long long>(ss.plan_cache_hits));
  return all_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("JPEG farm: decoder 1's misses as co-runners are integrated\n");
  std::printf("(compositionality = the numbers in the partitioned column "
              "stay put)\n\n");
  Table t({"decoders", "dec1 misses (shared)", "dec1 misses (partitioned)",
           "ok"});
  for (int n = 1; n <= 4; ++n) {
    const FarmRun shared = run_farm(n, false);
    const FarmRun part = run_farm(n, true);
    t.row()
        .integer(n)
        .integer(static_cast<std::int64_t>(shared.decoder1_misses))
        .integer(static_cast<std::int64_t>(part.decoder1_misses))
        .cell(shared.ok && part.ok ? "yes" : "NO")
        .done();
  }
  t.print();

  const std::string dir = core::parse_trace_dir(argc, argv);
  if (!dir.empty()) return run_service_planned(argc, argv, dir);
  return 0;
}
