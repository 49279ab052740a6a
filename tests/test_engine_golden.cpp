// Golden-value tests for the timing engine. Every field of SimResults
// and the decoded capture streams of the tiny scenarios are pinned: shared
// and partitioned evaluation runs, capture runs at jitter 0 and 1, static
// scheduling, one and two processors, an epoch-hook run (set stealing)
// and a phase-hook run (plan following). Any change to which processor
// steps next, when a task dispatches or when a hook fires moves these
// values, so a change that only makes the engine faster must leave every
// one of them untouched.
//
// A mismatch prints the full result dump and the table row to pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "opt/dynamic.hpp"
#include "opt/plan_schedule.hpp"
#include "opt/planner.hpp"
#include "opt/trace.hpp"
#include "sim/engine.hpp"

namespace cms {
namespace {

std::uint64_t hash_bytes(const void* data, std::size_t n) {
  return serialize::fnv1a64(static_cast<const std::uint8_t*>(data), n);
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

void dump_stats(std::ostream& os, const mem::CacheStats& s) {
  os << " acc=" << s.accesses << " hit=" << s.hits << " miss=" << s.misses
     << " cold=" << s.cold_misses << " wb=" << s.writebacks
     << " evo=" << s.evictions_by_other;
}

/// Canonical text form of every SimResults field.
std::string dump(const sim::SimResults& r) {
  std::ostringstream os;
  os << "makespan=" << r.makespan << " dispatches=" << r.dispatches
     << " instr=" << r.total_instructions << " l2_acc=" << r.l2_accesses
     << " l2_miss=" << r.l2_misses << " deadlocked=" << r.deadlocked
     << " limit=" << r.hit_dispatch_limit << "\ntraffic l1=" << r.traffic.l1_accesses
     << " l2=" << r.traffic.l2_accesses << " dram=" << r.traffic.dram_accesses
     << " offchip=" << r.traffic.offchip_bytes << "\n";
  for (const auto& p : r.procs)
    os << "proc " << p.id << " cycles=" << p.cycles << " busy=" << p.busy_cycles
       << " idle=" << p.idle_cycles << " switch=" << p.switch_cycles
       << " switches=" << p.switches << " instr=" << p.instructions << "\n";
  for (const auto& t : r.tasks) {
    os << "task " << t.id << " " << t.name << " firings=" << t.firings
       << " instr=" << t.instructions << " compute=" << t.compute_cycles
       << " mem=" << t.mem_cycles << " active=" << t.active_cycles
       << " demand_miss=" << t.l2_demand_misses;
    dump_stats(os, t.l2);
    os << "\n";
  }
  for (const auto& b : r.buffers) {
    os << "buffer " << b.id << " " << b.name;
    dump_stats(os, b.l2);
    os << "\n";
  }
  return os.str();
}

struct ResultGolden {
  const char* name;
  Cycle makespan;
  std::uint64_t dispatches;
  std::uint64_t hash;  // FNV-1a 64 of dump() plus any hook record
};

constexpr ResultGolden kResults[] = {
    {"mpeg2-tiny/shared", 122688, 678, 0x28c07309b7cc9021ull},
    {"jpeg-canny-tiny/shared", 255686, 1200, 0x4c0d8e64f1943877ull},
    {"mpeg2-tiny-rand/shared", 136845, 678, 0x0e80e30a3127c25eull},
    {"stream-tiny/shared", 494528, 3078, 0xd20bf68271678274ull},
    {"mpeg2-tiny/partitioned", 106930, 678, 0x6348ac22cd51f525ull},
    {"jpeg-canny-tiny/partitioned", 208088, 1200, 0x78b0b65171d4cf4full},
    {"mpeg2-tiny-rand/partitioned", 107150, 678, 0x426b0a43cda54a15ull},
    {"stream-tiny/partitioned", 497177, 3078, 0xe432ec2251e7c9a1ull},
    {"mpeg2-tiny/static", 124973, 678, 0xf6b4f4fc18c4e3fcull},
    {"jpeg-canny-tiny/procs1", 712997, 1200, 0xb6540a27060ba075ull},
    {"jpeg-canny-tiny/procs2", 403034, 1200, 0xf3388d9bc238e3beull},
    {"jpeg-canny-tiny/epoch-stealing", 207047, 1200, 0x3570cca72463fddcull},
    {"stream-tiny/phase-following", 534592, 3078, 0x01c48855aa32dee7ull},
};

struct CaptureGolden {
  const char* name;
  std::uint64_t jitter;
  std::uint64_t events;
  std::uint64_t hash;  // FNV-1a 64 of decoded_form(capture)
};

/// The decoded captures. They hold what the simulation recorded, not how
/// the file lays it out, so a change of the capture format must leave
/// every row in place.
constexpr CaptureGolden kCaptures[] = {
    {"mpeg2-tiny", 0, 6940, 0x3ad6de34a6064fc8ull},
    {"mpeg2-tiny", 1, 6940, 0x3ad6de34a6064fc8ull},
    {"jpeg-canny-tiny", 0, 10233, 0x1e39ec5e082b90b3ull},
    {"jpeg-canny-tiny", 1, 10260, 0x696e45d70313616cull},
    {"mpeg2-tiny-rand", 0, 6940, 0x3ad6de34a6064fc8ull},
    {"mpeg2-tiny-rand", 1, 6940, 0x3ad6de34a6064fc8ull},
    {"stream-tiny", 0, 24645, 0xb66c7c719cbda513ull},
    {"stream-tiny", 1, 24261, 0xedeb428efd8ebb10ull},
};

struct CaptureBytesGolden {
  const char* name;
  std::uint64_t jitter;
  std::size_t bytes;
  std::uint64_t hash;  // FNV-1a 64 of encode_capture(capture, "")
};

/// The encoded bytes of the same captures, in capture format 2. They move
/// with the capture file format, and moving them needs a
/// kTraceFormatVersion bump: a reader must never take one version's bytes
/// for another's.
constexpr CaptureBytesGolden kCaptureBytes[] = {
    {"mpeg2-tiny", 0, 11274, 0xf32e7d6261c204a2ull},
    {"mpeg2-tiny", 1, 11274, 0xf32e7d6261c204a2ull},
    {"jpeg-canny-tiny", 0, 15529, 0x8ee544c33f980bbdull},
    {"jpeg-canny-tiny", 1, 15505, 0x13f58a04e416c68full},
    {"mpeg2-tiny-rand", 0, 11274, 0xf32e7d6261c204a2ull},
    {"mpeg2-tiny-rand", 1, 11274, 0xf32e7d6261c204a2ull},
    {"stream-tiny", 0, 37831, 0x3ba76a4990539b82ull},
    {"stream-tiny", 1, 37463, 0x4d2476eced18d908ull},
};

/// Canonical bytes of a capture's decoded content: the line size, the
/// scheduler clients and the task stats, then per stream its client and
/// each event's line index, type, write-back flag and task. `events`
/// counts the events read.
std::vector<std::uint8_t> decoded_form(const opt::CaptureRun& c,
                                       std::uint64_t& events) {
  serialize::ByteWriter w;
  w.fixed32(c.trace.line_bytes);
  w.fixed64(c.scheduler_clients.size());
  for (const mem::ClientId& k : c.scheduler_clients) w.fixed64(k.key());
  w.fixed64(c.tasks.size());
  for (const opt::CaptureTaskStats& t : c.tasks) {
    w.fixed32(static_cast<std::uint32_t>(t.id));
    w.str(t.name);
    w.fixed64(t.instructions);
    w.fixed64(t.compute_cycles);
    w.fixed64(t.mem_cycles);
  }
  w.fixed64(c.trace.streams.size());
  for (const opt::ClientTrace& s : c.trace.streams) {
    w.fixed64(s.client().key());
    w.fixed64(s.events());
    auto rd = s.reader();
    opt::TraceEvent ev;
    while (rd.next(ev)) {
      w.fixed64(ev.line_index);
      w.u8(static_cast<std::uint8_t>(ev.type));
      w.u8(ev.l1_writeback ? 1 : 0);
      w.fixed32(static_cast<std::uint32_t>(ev.task));
      ++events;
    }
  }
  return w.take();
}

/// Compare a run against its pinned row. `extra` appends hook records
/// (calls, cycles) that SimResults does not carry.
void expect_result(const std::string& name, const sim::SimResults& r,
                   const std::string& extra = "") {
  const std::string text = dump(r) + extra;
  const std::uint64_t h = hash_bytes(text.data(), text.size());
  const std::string row = "{\"" + name + "\", " + std::to_string(r.makespan) +
                          ", " + std::to_string(r.dispatches) + ", " + hex(h) +
                          "ull},";
  const auto* g = std::find_if(std::begin(kResults), std::end(kResults),
                               [&](const ResultGolden& x) { return name == x.name; });
  if (g == std::end(kResults)) {
    ADD_FAILURE() << "no golden row; pin: " << row;
    return;
  }
  EXPECT_FALSE(r.deadlocked) << name;
  EXPECT_EQ(r.makespan, g->makespan) << name;
  EXPECT_EQ(r.dispatches, g->dispatches) << name;
  EXPECT_EQ(h, g->hash) << name << " moved; pin: " << row << "\n" << text;
}

/// A plan that needs no profile: every task and frame buffer gets `sets`
/// sets, FIFOs and segments the planner's fixed policy. `cfg`'s L2 is
/// resized to hold exactly that plan.
opt::PartitionPlan fitted_uniform_plan(const core::AppFactory& factory,
                                       core::ExperimentConfig& cfg,
                                       std::uint32_t sets) {
  const core::Experiment probe(factory, cfg);
  const opt::PartitionPlan plan =
      opt::uniform_plan(sets, probe.tasks(), probe.buffers(),
                        cfg.platform.hier.l2, cfg.planner);
  mem::CacheConfig& l2 = cfg.platform.hier.l2;
  l2.size_bytes = plan.used_sets * l2.line_bytes * l2.ways;
  return plan;
}

constexpr const char* kScenarios[] = {"mpeg2-tiny", "jpeg-canny-tiny",
                                      "mpeg2-tiny-rand", "stream-tiny"};

TEST(EngineGolden, SharedRuns) {
  for (const char* s : kScenarios) {
    const core::ScenarioSpec spec = core::scenarios().get(s);
    const core::Experiment exp(spec.factory, spec.experiment);
    const core::RunOutput out = exp.run_shared();
    EXPECT_TRUE(out.verified) << s;
    expect_result(std::string(s) + "/shared", out.results);
  }
}

TEST(EngineGolden, PartitionedRuns) {
  for (const char* s : kScenarios) {
    const core::ScenarioSpec spec = core::scenarios().get(s);
    core::ExperimentConfig cfg = spec.experiment;
    const opt::PartitionPlan plan = fitted_uniform_plan(spec.factory, cfg, 2);
    const core::Experiment exp(spec.factory, cfg);
    const core::RunOutput out = exp.run_partitioned(plan);
    EXPECT_TRUE(out.verified) << s;
    expect_result(std::string(s) + "/partitioned", out.results);
  }
}

/// The capture of every tiny scenario at jitter 0 and 1.
template <typename Fn>
void for_each_capture(Fn&& fn) {
  for (const char* s : kScenarios) {
    const core::ScenarioSpec spec = core::scenarios().get(s);
    core::ExperimentConfig cfg = spec.experiment;
    cfg.profile_runs = 2;
    const core::Experiment exp(spec.factory, cfg);
    for (std::uint32_t run = 0; run < 2; ++run) {
      bool usable = false;
      const opt::CaptureRun capture = exp.capture_single(run, &usable);
      EXPECT_TRUE(usable) << s;
      fn(std::string(s), run, capture);
    }
  }
}

/// The row of `table` pinned for (name, jitter), or null after a failure
/// that prints `row` to pin.
template <typename Golden, std::size_t N>
const Golden* find_row(const Golden (&table)[N], const std::string& name,
                       std::uint64_t jitter, const std::string& row) {
  for (const Golden& g : table)
    if (name == g.name && g.jitter == jitter) return &g;
  ADD_FAILURE() << "no golden row; pin: " << row;
  return nullptr;
}

TEST(EngineGolden, CaptureStreams) {
  for_each_capture([](const std::string& s, std::uint32_t run,
                      const opt::CaptureRun& capture) {
    std::uint64_t events = 0;
    const std::vector<std::uint8_t> form = decoded_form(capture, events);
    const std::uint64_t h = hash_bytes(form.data(), form.size());
    const std::string row = "{\"" + s + "\", " + std::to_string(run) + ", " +
                            std::to_string(events) + ", " + hex(h) + "ull},";
    const CaptureGolden* g = find_row(kCaptures, s, run, row);
    if (g == nullptr) return;
    EXPECT_EQ(events, g->events) << s << " jitter " << run;
    EXPECT_EQ(h, g->hash) << s << " jitter " << run << " moved; pin: " << row;
  });
}

TEST(EngineGolden, CaptureFileBytes) {
  for_each_capture([](const std::string& s, std::uint32_t run,
                      const opt::CaptureRun& capture) {
    const std::vector<std::uint8_t> bytes = opt::encode_capture(capture, "");
    const std::uint64_t h = hash_bytes(bytes.data(), bytes.size());
    const std::string row = "{\"" + s + "\", " + std::to_string(run) + ", " +
                            std::to_string(bytes.size()) + ", " + hex(h) +
                            "ull},";
    const CaptureBytesGolden* g = find_row(kCaptureBytes, s, run, row);
    if (g == nullptr) return;
    EXPECT_EQ(bytes.size(), g->bytes) << s << " jitter " << run;
    EXPECT_EQ(h, g->hash) << s << " jitter " << run << " moved; pin: " << row;
  });
}

TEST(EngineGolden, StaticScheduling) {
  const core::ScenarioSpec spec = core::scenarios().get("mpeg2-tiny");
  core::ExperimentConfig cfg = spec.experiment;
  cfg.policy = sim::SchedPolicy::kStatic;
  const core::Experiment exp(spec.factory, cfg);
  const core::RunOutput out = exp.run_shared();
  EXPECT_TRUE(out.verified);
  expect_result("mpeg2-tiny/static", out.results);
}

TEST(EngineGolden, OneAndTwoProcessors) {
  const core::ScenarioSpec spec = core::scenarios().get("jpeg-canny-tiny");
  for (const std::uint32_t procs : {1u, 2u}) {
    core::ExperimentConfig cfg = spec.experiment;
    cfg.platform.hier.num_procs = procs;
    const core::Experiment exp(spec.factory, cfg);
    const core::RunOutput out = exp.run_shared();
    EXPECT_TRUE(out.verified) << procs;
    expect_result("jpeg-canny-tiny/procs" + std::to_string(procs),
                  out.results);
  }
}

TEST(EngineGolden, EpochHookSetStealing) {
  // The set-stealing controller of tests/test_dynamic.cpp, started from a
  // uniform plan: every epoch moves sets, so the hook's firing cycles
  // shape the rest of the run.
  const core::AppFactory factory = [] {
    return apps::make_jpeg_canny_app(apps::AppConfig::tiny(3));
  };
  core::ExperimentConfig cfg;
  const opt::PartitionPlan plan = fitted_uniform_plan(factory, cfg, 2);

  apps::Application app = factory();
  sim::PlatformConfig pc = cfg.platform;
  pc.rt_data = app.rt_data;
  pc.rt_bss = app.rt_bss;
  sim::Platform platform(pc);
  mem::PartitionedCache& l2 = platform.hierarchy().l2();
  for (const auto& b : app.net->buffers())
    l2.interval_table().add(b.base, b.footprint, b.id);
  plan.apply(l2);
  opt::DynamicPartitioner dyn(plan);
  sim::Os os(cfg.policy, pc.hier.num_procs);
  sim::TimingEngine engine(platform, os, app.net->tasks());
  engine.set_buffer_names(app.net->buffer_names());
  std::ostringstream hook;
  engine.set_epoch_hook(10000, [&](Cycle now, mem::MemoryHierarchy& h) {
    hook << "epoch " << now << "\n";
    dyn.epoch(now, h);
  });
  const sim::SimResults res = engine.run();
  EXPECT_TRUE(app.verify());
  EXPECT_GT(dyn.moves(), 0u);
  hook << "moves=" << dyn.moves() << " flushed=" << dyn.flushed_sets()
       << " wb=" << dyn.flush_writebacks() << "\n";
  expect_result("jpeg-canny-tiny/epoch-stealing", res, hook.str());
}

TEST(EngineGolden, PhaseHookPlanFollowing) {
  // stream-tiny under its phase schedule, with each phase's uniform plan
  // installed at activation (the plan-following pattern of
  // bench/ablation_phased.cpp, minus the profiling).
  const core::ScenarioSpec spec = core::scenarios().get("stream-tiny");
  apps::Application app = spec.factory();
  std::map<std::string, mem::ClientId> clients;
  for (const sim::Task* t : app.net->tasks())
    clients[t->name()] = mem::ClientId::task(t->id());
  for (const auto& b : app.net->buffers())
    clients[b.name] = mem::ClientId::buffer(b.id);

  opt::PlanSchedule schedule;
  std::uint32_t max_sets = 0;
  for (std::size_t k = 0; k < spec.phases.size(); ++k) {
    core::ExperimentConfig cfg = spec.experiment;
    const opt::PartitionPlan plan =
        fitted_uniform_plan(spec.phases[k].factory, cfg, 1);
    max_sets = std::max(max_sets, plan.used_sets);
    schedule.phases.push_back(
        opt::map_phase_plan(plan, k, app.phases[k]->prefix, clients));
  }

  sim::PlatformConfig pc = spec.experiment.platform;
  pc.rt_data = app.rt_data;
  pc.rt_bss = app.rt_bss;
  pc.hier.l2.size_bytes = max_sets * pc.hier.l2.line_bytes * pc.hier.l2.ways;
  sim::Platform platform(pc);
  for (const auto& b : app.net->buffers())
    platform.hierarchy().l2().interval_table().add(b.base, b.footprint, b.id);
  sim::Os os(spec.experiment.policy, pc.hier.num_procs);
  sim::TimingEngine engine(platform, os, app.net->tasks());
  engine.set_buffer_names(app.net->buffer_names());
  std::vector<std::vector<TaskId>> phases;
  for (const auto& u : app.phases) phases.push_back(u->tasks);
  engine.set_phase_schedule(phases);

  opt::PhasePlanFollower follower(std::move(schedule));
  follower.install(0, platform.hierarchy());
  std::ostringstream hook;
  engine.set_phase_hook(
      [&](std::size_t k, Cycle now, mem::MemoryHierarchy& h) {
        hook << "phase " << k << " at " << now << "\n";
        follower.install(k, h);
      });
  const sim::SimResults res = engine.run();
  EXPECT_TRUE(app.verify());
  EXPECT_EQ(follower.moves(), 2u);
  for (const Cycle c : engine.phase_entry_cycles()) hook << "entry " << c << "\n";
  hook << "flushed=" << follower.flushed_sets()
       << " wb=" << follower.flush_writebacks() << "\n";
  expect_result("stream-tiny/phase-following", res, hook.str());
}

}  // namespace
}  // namespace cms
