// Building your own application against the public API: a three-stage
// sensor pipeline (sample -> filter -> log) assembled as an
// apps::Application so the whole Experiment tooling (profiling, MCKP
// planning, compositionality reporting) works on it unchanged.
//
// This is the template to copy when porting a real task set onto the
// library.
#include <cstdio>

#include "common/table.hpp"
#include "core/cli.hpp"
#include "core/scenario.hpp"

using namespace cms;

namespace {

struct SampleTok {
  std::uint32_t seq;
  std::int32_t value;
};

/// Stage 1: produces synthetic sensor samples from a lookup-heavy model.
class Sampler final : public kpn::Process {
 public:
  Sampler(TaskId id, std::string name, int count, kpn::Fifo<SampleTok>* out)
      : Process(id, std::move(name)), count_(count), out_(out) {}

  void init() override { model_ = make_array<std::int32_t>(2048); }
  bool can_fire() const override { return produced_ < count_ && out_->can_write(); }
  bool done() const override { return produced_ >= count_; }

  void run(sim::TaskContext& ctx) override {
    ctx.fetch_code(96);
    std::int32_t v = 0;
    for (int i = 0; i < 16; ++i) {
      const std::size_t idx =
          (static_cast<std::size_t>(produced_) * 131 + i * 17) % model_.size();
      v += model_.get(idx);
      ctx.mem().compute(2);
    }
    out_->write(ctx.mem(),
                {static_cast<std::uint32_t>(produced_), v + produced_});
    ++produced_;
  }

 private:
  int count_;
  kpn::Fifo<SampleTok>* out_;
  sim::TrackedArray<std::int32_t> model_;
  int produced_ = 0;
};

/// Stage 2: sliding-average filter with a tracked history window.
class Filter final : public kpn::Process {
 public:
  Filter(TaskId id, std::string name, int count, kpn::Fifo<SampleTok>* in,
         kpn::Fifo<SampleTok>* out)
      : Process(id, std::move(name)), count_(count), in_(in), out_(out) {}

  void init() override { window_ = make_array<std::int32_t>(64); }
  bool can_fire() const override {
    return consumed_ < count_ && in_->can_read() && out_->can_write();
  }
  bool done() const override { return consumed_ >= count_; }

  void run(sim::TaskContext& ctx) override {
    ctx.fetch_code(64);
    const SampleTok s = in_->read(ctx.mem());
    window_.set(static_cast<std::size_t>(consumed_ % 64), s.value);
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < window_.size(); ++i) {
      acc += window_.get(i);
      ctx.mem().compute(1);
    }
    out_->write(ctx.mem(), {s.seq, static_cast<std::int32_t>(acc / 64)});
    ++consumed_;
  }

 private:
  int count_;
  kpn::Fifo<SampleTok>* in_;
  kpn::Fifo<SampleTok>* out_;
  sim::TrackedArray<std::int32_t> window_;
  int consumed_ = 0;
};

/// Stage 3: writes filtered samples to a shared log frame buffer.
class Logger final : public kpn::Process {
 public:
  Logger(TaskId id, std::string name, int count, kpn::Fifo<SampleTok>* in,
         kpn::FrameBuffer* log)
      : Process(id, std::move(name)), count_(count), in_(in), log_(log) {}

  bool can_fire() const override { return consumed_ < count_ && in_->can_read(); }
  bool done() const override { return consumed_ >= count_; }

  void run(sim::TaskContext& ctx) override {
    ctx.fetch_code(48);
    const SampleTok s = in_->read(ctx.mem());
    const std::uint64_t off =
        (static_cast<std::uint64_t>(s.seq) * 4) % log_->size();
    log_->write(ctx.mem(), off, static_cast<std::uint8_t>(s.value));
    checksum_ += static_cast<std::uint64_t>(s.value);
    ++consumed_;
  }

  std::uint64_t checksum() const { return checksum_; }

 private:
  int count_;
  kpn::Fifo<SampleTok>* in_;
  kpn::FrameBuffer* log_;
  std::uint64_t checksum_ = 0;
  int consumed_ = 0;
};

constexpr int kSamples = 3000;

/// Assemble everything as an apps::Application so core::Experiment can
/// drive it.
apps::Application make_sensor_app() {
  apps::Application app;
  app.name = "sensor-pipeline";
  app.net = std::make_unique<kpn::Network>();
  kpn::Network& net = *app.net;

  app.appl_data = net.make_segment("appl_data", 4096);
  app.appl_bss = net.make_segment("appl_bss", 4096);
  app.rt_data = net.make_segment("rt_data", 4096);
  app.rt_bss = net.make_segment("rt_bss", 4096);

  auto* raw = net.make_fifo<SampleTok>("raw", 32);
  auto* filtered = net.make_fifo<SampleTok>("filtered", 32);
  auto* log = net.make_frame_buffer("log", 8 * 1024);

  kpn::ProcessSpec spec;
  spec.heap_bytes = 16 * 1024;
  auto* sampler = net.add_process<Sampler>("sampler", spec, kSamples, raw);
  auto* filter = net.add_process<Filter>("filter", spec, kSamples, raw, filtered);
  auto* logger = net.add_process<Logger>("logger", spec, kSamples, filtered, log);
  (void)sampler;
  (void)filter;

  app.verify = [logger] { return logger->checksum() != 0; };
  return app;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned jobs = core::parse_jobs(argc, argv);

  core::ExperimentConfig cfg;
  cfg.platform.hier.num_procs = 2;
  cfg.platform.hier.l2.size_bytes = 32 * 1024;
  cfg.profile_grid = {1, 2, 4, 8, 16, 32, 64};
  cfg.profile_runs = 2;
  cfg.jobs = jobs;
  // Custom apps opt into the persistent trace store by naming their
  // content: any change to the pipeline below must change this key.
  cfg.trace_store = core::open_trace_store(core::parse_trace_dir(argc, argv),
                                           core::parse_trace_mode(argc, argv));
  cfg.trace_key = "sensor-pipeline/v1";

  // Registering the custom workload makes it addressable by name for any
  // campaign tooling (and guards against accidental re-registration).
  if (!core::scenarios().has("sensor-pipeline"))
    core::scenarios().add({"sensor-pipeline",
                           "3-stage sample->filter->log sensor pipeline",
                           make_sensor_app, cfg, /*phases=*/{}});

  core::Experiment exp(make_sensor_app, cfg);
  const opt::MissProfile prof = exp.profile();
  const opt::PartitionPlan plan = exp.plan(prof);
  if (!plan.feasible) {
    std::printf("plan infeasible\n");
    return 1;
  }

  Table t({"client", "sets", "expected misses"});
  for (const auto& e : plan.entries)
    t.row()
        .cell(e.name)
        .integer(e.sets)
        .integer(static_cast<std::int64_t>(e.expected_misses))
        .done();
  t.print();

  const core::RunOutput shared = exp.run_shared();
  const core::RunOutput part = exp.run_partitioned(plan);
  std::printf("\nshared:      %llu L2 misses (%.2f%%)\n",
              static_cast<unsigned long long>(shared.results.l2_misses),
              100.0 * shared.results.l2_miss_rate());
  std::printf("partitioned: %llu L2 misses (%.2f%%)\n",
              static_cast<unsigned long long>(part.results.l2_misses),
              100.0 * part.results.l2_miss_rate());
  const auto rep = opt::compare_expected_vs_simulated(prof, plan, part.results);
  std::printf("compositionality deviation: %.3f%% of total misses\n",
              100.0 * rep.max_rel_to_total);
  return 0;
}
