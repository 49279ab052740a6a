// Quickstart: build a tiny two-task producer/consumer KPN, run it on the
// CAKE-like platform twice — shared L2 vs partitioned L2 — and print the
// per-client miss counts. Demonstrates the whole public API surface in
// ~100 lines: the workload is wrapped as an apps::Application, both modes
// are submitted as SimJobs to one core::Campaign (so with --jobs 2 they
// simulate concurrently), and --quick additionally runs a reduced-grid
// Experiment::profile() through the same runner: one capture simulation,
// then its replay at both grid points, split by stream across the workers.
//
// Flags: --jobs N (campaign workers, default 1), --quick (small content +
// profiling smoke; what CI runs under TSan).
#include <cstdio>

#include "common/table.hpp"
#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/runner.hpp"
#include "kpn/network.hpp"
#include "mem/partitioned_cache.hpp"
#include "sim/engine.hpp"
#include "sim/os.hpp"
#include "sim/platform.hpp"

using namespace cms;

namespace {

int g_items = 4000;
constexpr std::size_t kStreamBytes = 256 * 1024;  // producer streams, no reuse
constexpr std::size_t kTableBytes = 32 * 1024;    // consumer reuses this table
                                                  // (bigger than the 16 KB L1)

/// Producer: streams sequentially through a large buffer (video-style
/// traffic, no reuse) and pushes one token per firing. In a shared cache
/// this stream flushes everyone else's data — the paper's core problem.
class Producer final : public kpn::Process {
 public:
  Producer(TaskId id, std::string name, kpn::Fifo<std::uint32_t>* out)
      : Process(id, std::move(name)), out_(out) {}

  void init() override {
    stream_ = make_array<std::uint32_t>(kStreamBytes / 4);
    // Host-side content (video samples); simulated reads cold-miss.
    for (std::size_t i = 0; i < stream_.size(); ++i)
      stream_.host_data()[i] = static_cast<std::uint32_t>(i * 2654435761u);
  }
  bool can_fire() const override { return produced_ < g_items && out_->can_write(); }
  bool done() const override { return produced_ >= g_items; }

  void run(sim::TaskContext& ctx) override {
    ctx.fetch_code(64);
    std::uint32_t acc = 0;
    for (int i = 0; i < 256; ++i) {  // 1 KB of fresh stream per firing
      const std::size_t idx = (cursor_ + static_cast<std::size_t>(i)) % stream_.size();
      acc += stream_.get(idx);
      ctx.mem().compute(1);
    }
    cursor_ = (cursor_ + 256) % stream_.size();
    out_->write(ctx.mem(), acc);
    ++produced_;
  }

 private:
  kpn::Fifo<std::uint32_t>* out_;
  sim::TrackedArray<std::uint32_t> stream_;
  std::size_t cursor_ = 0;
  int produced_ = 0;
};

/// Consumer: hashes tokens through a small lookup table it reuses heavily.
/// Its performance depends entirely on that table staying cached.
class Consumer final : public kpn::Process {
 public:
  Consumer(TaskId id, std::string name, kpn::Fifo<std::uint32_t>* in)
      : Process(id, std::move(name)), in_(in) {}

  void init() override {
    table_ = make_array<std::uint32_t>(kTableBytes / 4);
    for (std::size_t i = 0; i < table_.size(); ++i)
      table_.host_data()[i] = static_cast<std::uint32_t>(i * 40503u + 7u);
  }
  bool can_fire() const override { return consumed_ < g_items && in_->can_read(); }
  bool done() const override { return consumed_ >= g_items; }

  void run(sim::TaskContext& ctx) override {
    ctx.fetch_code(64);
    std::uint32_t v = in_->read(ctx.mem());
    for (int i = 0; i < 32; ++i) {
      const std::size_t idx = (v + static_cast<std::uint32_t>(i) * 97) % table_.size();
      v ^= table_.get(idx);
      ctx.mem().compute(3);
    }
    checksum_ += v;
    ++consumed_;
  }

  std::uint64_t checksum() const { return checksum_; }

 private:
  kpn::Fifo<std::uint32_t>* in_;
  sim::TrackedArray<std::uint32_t> table_;
  std::uint64_t checksum_ = 0;
  int consumed_ = 0;
};

/// Wrap the producer/consumer network as an apps::Application so the
/// campaign runner (and the whole Experiment tooling) can drive it.
apps::Application make_quickstart_app() {
  apps::Application app;
  app.name = "quickstart";
  app.net = std::make_unique<kpn::Network>();
  kpn::Network& net = *app.net;

  auto* fifo = net.make_fifo<std::uint32_t>("tokens", 64);
  kpn::ProcessSpec prod_spec;
  prod_spec.heap_bytes = kStreamBytes + 4096;
  kpn::ProcessSpec cons_spec;
  cons_spec.heap_bytes = kTableBytes + 4096;
  net.add_process<Producer>("producer", prod_spec, fifo);
  auto* cons = net.add_process<Consumer>("consumer", cons_spec, fifo);
  app.verify = [cons] { return cons->checksum() != 0; };
  return app;
}

/// 2 processors, 64 KB 4-way shared L2 (256 sets): big enough for the
/// consumer's 48 KB table — unless the producer's stream evicts it.
sim::PlatformConfig quickstart_platform() {
  sim::PlatformConfig pc;
  pc.hier.num_procs = 2;
  pc.hier.l2.size_bytes = 64 * 1024;
  return pc;
}

/// Hand-built partition plan for `app`'s client ids (per-network counters,
/// so they match every Application the factory produces). The streaming
/// producer gets almost nothing (streams don't cache); the consumer gets
/// enough sets to hold its whole table plus its hot code lines; the FIFO
/// gets its own small range.
opt::PartitionPlan quickstart_plan(const apps::Application& app) {
  const auto& procs = app.net->processes();
  const auto buffers = app.net->buffers();

  opt::PartitionPlan plan;
  plan.total_sets = 256;
  plan.entries.push_back({mem::ClientId::task(procs[0]->id()), "producer",
                          kpn::BufferKind::kSegment, true, 8, {0, 8}, 0.0});
  plan.entries.push_back({mem::ClientId::task(procs[1]->id()), "consumer",
                          kpn::BufferKind::kSegment, true, 224, {8, 224}, 0.0});
  plan.entries.push_back({mem::ClientId::buffer(buffers[0].id), "tokens",
                          kpn::BufferKind::kFifo, false, 4, {232, 4}, 0.0});
  plan.spare = {236, 20};
  plan.used_sets = 236;
  plan.feasible = true;
  return plan;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = core::parse_jobs(argc, argv);
  const bool quick = core::has_flag(argc, argv, "--quick");
  const std::string trace_dir = core::parse_trace_dir(argc, argv);
  const core::TraceMode trace_mode = core::parse_trace_mode(argc, argv);
  core::warn_unknown_flags(argc, argv);
  if (quick) g_items = 500;

  const unsigned workers = core::Campaign::resolve_jobs(jobs);
  std::printf("CMS quickstart: producer/consumer, shared vs partitioned L2 "
              "(table %zu KB, %u campaign worker%s)\n",
              kTableBytes / 1024, workers, workers == 1 ? "" : "s");

  // Both modes are independent simulations — submit them to one campaign;
  // with --jobs 2 they run concurrently and still report deterministically.
  core::Campaign campaign(jobs);
  core::SimJob shared_job;
  shared_job.factory = make_quickstart_app;
  shared_job.platform = quickstart_platform();
  shared_job.label = "shared";
  core::SimJob part_job = shared_job;
  part_job.plan =
      std::make_shared<const opt::PartitionPlan>(quickstart_plan(make_quickstart_app()));
  part_job.label = "partitioned";
  campaign.add(shared_job);
  campaign.add(part_job);
  const std::vector<core::JobResult> outcomes = campaign.run_all();

  Table table({"mode", "client", "L2 accesses", "L2 misses", "miss rate %"});
  std::uint64_t protected_misses[2] = {0, 0};
  for (const core::JobResult& jr : outcomes) {
    const sim::SimResults& res = jr.output.results;
    const bool partitioned = jr.output.partitioned;
    const char* mode = jr.label.c_str();
    const auto* cons_stats = res.find_task("consumer");
    const auto* fifo_stats = res.find_buffer("tokens");
    protected_misses[partitioned ? 1 : 0] =
        (cons_stats != nullptr ? cons_stats->l2.misses : 0) +
        (fifo_stats != nullptr ? fifo_stats->l2.misses : 0);
    for (const auto& t : res.tasks)
      table.row()
          .cell(mode)
          .cell(t.name)
          .integer(static_cast<std::int64_t>(t.l2.accesses))
          .integer(static_cast<std::int64_t>(t.l2.misses))
          .num(100.0 * t.l2.miss_rate())
          .done();
    for (const auto& b : res.buffers)
      table.row()
          .cell(mode)
          .cell(b.name)
          .integer(static_cast<std::int64_t>(b.l2.accesses))
          .integer(static_cast<std::int64_t>(b.l2.misses))
          .num(100.0 * b.l2.miss_rate())
          .done();
    std::printf("%s: makespan=%llu cycles, L2 miss rate %.2f%%, CPI %.3f%s%s\n",
                mode, static_cast<unsigned long long>(res.makespan),
                100.0 * res.l2_miss_rate(), res.mean_cpi(),
                jr.output.verified ? "" : " [VERIFY FAILED]",
                res.deadlocked ? " [DEADLOCK]" : "");
  }
  table.print();
  std::printf(
      "\nThe producer's stream misses either way (streams don't cache); the\n"
      "point is everyone else: consumer + FIFO misses drop %llu -> %llu under\n"
      "partitioning, and are now guaranteed not to depend on the co-runner.\n",
      static_cast<unsigned long long>(protected_misses[0]),
      static_cast<unsigned long long>(protected_misses[1]));

  if (quick) {
    // Reduced-grid profile through the same runner. With profile_runs = 1
    // it is one capture simulation, then the replay of that capture at
    // both grid points, which the Campaign splits by stream across the
    // workers — the CI TSan smoke runs this path.
    core::ExperimentConfig cfg;
    cfg.platform = quickstart_platform();
    cfg.profile_grid = {1, 8};
    cfg.profile_runs = 1;
    cfg.jobs = jobs;
    // --trace-dir persists the captures; the key names this app AND its
    // content knob (g_items), so a --quick store entry can never serve a
    // full-size run.
    cfg.trace_store = core::open_trace_store(trace_dir, trace_mode);
    cfg.trace_key = "quickstart/items=" + std::to_string(g_items);
    core::Experiment exp(make_quickstart_app, cfg);
    const opt::MissProfile prof = exp.profile();
    std::printf("\n--quick profile sweep (%zu grid points replayed from %u "
                "capture, %u workers):\n%s",
                cfg.profile_grid.size(), cfg.profile_runs, workers,
                prof.to_string().c_str());
  }
  return 0;
}
