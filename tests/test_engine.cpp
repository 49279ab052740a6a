// Tests for the timing engine, the OS scheduler and their interplay,
// using small synthetic tasks.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "sim/engine.hpp"
#include "sim/os.hpp"
#include "sim/platform.hpp"
#include "sim/task.hpp"

namespace cms::sim {
namespace {

PlatformConfig tiny_platform(std::uint32_t procs = 2) {
  PlatformConfig cfg;
  cfg.hier.num_procs = procs;
  cfg.hier.l1 = mem::CacheConfig{.size_bytes = 1024, .line_bytes = 64, .ways = 2};
  cfg.hier.l2 = mem::CacheConfig{.size_bytes = 16 * 1024, .line_bytes = 64, .ways = 4};
  cfg.task_switch_cost = 10;
  cfg.quantum_firings = 2;
  return cfg;
}

/// Fires `firings` times; each firing does `reads` sequential reads from a
/// private range and `compute` cycles.
class WorkTask final : public Task {
 public:
  WorkTask(TaskId id, std::string name, int firings, int reads, int compute)
      : Task(id, std::move(name)), firings_(firings), reads_(reads),
        compute_(compute) {}

  bool can_fire() const override { return fired_ < firings_; }
  bool done() const override { return fired_ >= firings_; }

  void fire(TaskContext& ctx) override {
    for (int i = 0; i < reads_; ++i) {
      ctx.mem().compute(static_cast<std::uint32_t>(compute_));
      ctx.mem().read(static_cast<Addr>(id()) * 0x100000 +
                         static_cast<Addr>(cursor_++) * 64,
                     4);
    }
    ++fired_;
  }

  int fired() const { return fired_; }

 private:
  int firings_, reads_, compute_;
  int fired_ = 0;
  std::uint64_t cursor_ = 0;
};

/// A task that is never ready (for deadlock detection).
class StuckTask final : public Task {
 public:
  StuckTask(TaskId id) : Task(id, "stuck") {}
  bool can_fire() const override { return false; }
  bool done() const override { return false; }
  void fire(TaskContext&) override {}
};

TEST(Engine, RunsAllFirings) {
  Platform platform(tiny_platform());
  Os os(SchedPolicy::kMigrating, 2);
  WorkTask a(0, "a", 5, 10, 3), b(1, "b", 7, 4, 2);
  TimingEngine engine(platform, os, {&a, &b});
  const SimResults res = engine.run();
  EXPECT_FALSE(res.deadlocked);
  EXPECT_EQ(a.fired(), 5);
  EXPECT_EQ(b.fired(), 7);
  ASSERT_EQ(res.tasks.size(), 2u);
  EXPECT_EQ(res.tasks[0].firings, 5u);
  EXPECT_EQ(res.tasks[1].firings, 7u);
  EXPECT_GT(res.makespan, 0u);
}

TEST(Engine, InstructionAccounting) {
  Platform platform(tiny_platform(1));
  Os os(SchedPolicy::kMigrating, 1);
  WorkTask a(0, "a", 2, 10, 3);
  TimingEngine engine(platform, os, {&a});
  const SimResults res = engine.run();
  // Each firing: 10 reads + 30 compute cycles = 40 "instructions".
  EXPECT_EQ(res.tasks[0].instructions, 80u);
  EXPECT_EQ(res.total_instructions, 80u);
}

TEST(Engine, DetectsDeadlock) {
  Platform platform(tiny_platform());
  Os os(SchedPolicy::kMigrating, 2);
  StuckTask s(0);
  TimingEngine engine(platform, os, {&s});
  const SimResults res = engine.run();
  EXPECT_TRUE(res.deadlocked);
}

TEST(Engine, FinishedPredicateStopsEarly) {
  Platform platform(tiny_platform());
  Os os(SchedPolicy::kMigrating, 2);
  WorkTask a(0, "a", 1000000, 2, 1);
  int count = 0;
  TimingEngine engine(platform, os, {&a}, [&count] { return ++count > 50; });
  const SimResults res = engine.run();
  EXPECT_FALSE(res.deadlocked);
  EXPECT_LT(a.fired(), 1000000);
}

TEST(Engine, StaticAssignmentPinsTasks) {
  Platform platform(tiny_platform(2));
  Os os(SchedPolicy::kStatic, 2);
  WorkTask a(0, "a", 6, 4, 2), b(1, "b", 6, 4, 2);
  os.assign(0, 0);
  os.assign(1, 1);
  TimingEngine engine(platform, os, {&a, &b});
  const SimResults res = engine.run();
  EXPECT_FALSE(res.deadlocked);
  // Both processors did work (one task each).
  EXPECT_GT(res.procs[0].instructions, 0u);
  EXPECT_GT(res.procs[1].instructions, 0u);
}

TEST(Engine, StaticAssignmentToOneProcLeavesOtherIdle) {
  Platform platform(tiny_platform(2));
  Os os(SchedPolicy::kStatic, 2);
  WorkTask a(0, "a", 6, 4, 2), b(1, "b", 6, 4, 2);
  os.assign(0, 0);
  os.assign(1, 0);
  TimingEngine engine(platform, os, {&a, &b});
  const SimResults res = engine.run();
  EXPECT_FALSE(res.deadlocked);
  EXPECT_EQ(res.procs[1].instructions, 0u);
  EXPECT_GT(res.procs[0].switches, 0u);
}

TEST(Engine, DeterministicAcrossRuns) {
  auto run_once = [] {
    Platform platform(tiny_platform());
    Os os(SchedPolicy::kMigrating, 2, 3);
    WorkTask a(0, "a", 20, 8, 2), b(1, "b", 15, 6, 3), c(2, "c", 10, 12, 1);
    TimingEngine engine(platform, os, {&a, &b, &c});
    return engine.run();
  };
  const SimResults r1 = run_once();
  const SimResults r2 = run_once();
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_EQ(r1.l2_misses, r2.l2_misses);
  for (std::size_t i = 0; i < r1.tasks.size(); ++i) {
    EXPECT_EQ(r1.tasks[i].l2.misses, r2.tasks[i].l2.misses);
    EXPECT_EQ(r1.tasks[i].active_cycles, r2.tasks[i].active_cycles);
  }
}

TEST(Engine, JitterChangesScheduleButNotWork) {
  auto run_with = [](std::uint64_t jitter) {
    Platform platform(tiny_platform());
    Os os(SchedPolicy::kMigrating, 2, jitter);
    WorkTask a(0, "a", 20, 8, 2), b(1, "b", 15, 6, 3), c(2, "c", 10, 12, 1);
    TimingEngine engine(platform, os, {&a, &b, &c});
    return engine.run();
  };
  const SimResults r1 = run_with(0);
  const SimResults r2 = run_with(1);
  // The same firings happen in both runs.
  EXPECT_EQ(r1.tasks[0].firings, r2.tasks[0].firings);
  EXPECT_EQ(r1.tasks[0].instructions, r2.tasks[0].instructions);
}

TEST(Engine, SwitchCostCharged) {
  Platform platform(tiny_platform(1));
  Os os(SchedPolicy::kMigrating, 1);
  WorkTask a(0, "a", 4, 2, 1), b(1, "b", 4, 2, 1);
  TimingEngine engine(platform, os, {&a, &b});
  const SimResults res = engine.run();
  EXPECT_GT(res.procs[0].switches, 1u);
  EXPECT_GE(res.procs[0].switch_cycles,
            res.procs[0].switches * tiny_platform().task_switch_cost);
}

TEST(Engine, QuantumKeepsTaskScheduled) {
  // With quantum 4 and two tasks on one processor, switches are bounded
  // by roughly total_firings / quantum (plus one).
  PlatformConfig cfg = tiny_platform(1);
  cfg.quantum_firings = 4;
  Platform platform(cfg);
  Os os(SchedPolicy::kMigrating, 1);
  WorkTask a(0, "a", 16, 2, 1), b(1, "b", 16, 2, 1);
  TimingEngine engine(platform, os, {&a, &b});
  const SimResults res = engine.run();
  EXPECT_LE(res.procs[0].switches, 10u);
}

TEST(Engine, CpiAtLeastOne) {
  Platform platform(tiny_platform());
  Os os(SchedPolicy::kMigrating, 2);
  WorkTask a(0, "a", 10, 10, 2);
  TimingEngine engine(platform, os, {&a});
  const SimResults res = engine.run();
  for (const auto& p : res.procs) {
    if (p.instructions > 0) {
      EXPECT_GE(p.cpi(), 1.0);
    }
  }
}

TEST(Engine, DispatchLimitStopsRunaway) {
  PlatformConfig cfg = tiny_platform();
  cfg.max_dispatches = 10;
  Platform platform(cfg);
  Os os(SchedPolicy::kMigrating, 2);
  WorkTask a(0, "a", 1000000, 1, 1);
  TimingEngine engine(platform, os, {&a});
  const SimResults res = engine.run();
  EXPECT_TRUE(res.hit_dispatch_limit);
  EXPECT_EQ(res.dispatches, 10u);
}

// ---- Run-ahead through L1 hits ----
//
// A processor keeps stepping its own single-line L1 hits and size-0 gap
// carriers (never its firing's last access) after it stops sorting first.
// The scripted tasks below put each edge of that rule into every firing;
// the pinned values were recorded with the engine that stepped every
// access in (clock, index) order, and the epoch-hook and phase-schedule
// runs, which keep that order, must reproduce them.

/// One step of a scripted firing. Addresses are offsets from the task's
/// private base; kStream reads a line no earlier firing touched.
struct Op {
  enum Kind { kCompute, kRead, kWrite, kStream } kind;
  std::uint32_t arg = 0;  // cycles (kCompute) or address offset
  std::uint32_t size = 4;
};

class ScriptTask final : public Task {
 public:
  ScriptTask(TaskId id, int firings, std::vector<Op> script)
      : Task(id, "script" + std::to_string(id)), firings_(firings),
        script_(std::move(script)) {}

  bool can_fire() const override { return fired_ < firings_; }
  bool done() const override { return fired_ >= firings_; }

  void fire(TaskContext& ctx) override {
    const Addr base = static_cast<Addr>(id()) * 0x100000;
    for (const Op& op : script_) {
      switch (op.kind) {
        case Op::kCompute: ctx.mem().compute(op.arg); break;
        case Op::kRead: ctx.mem().read(base + op.arg, op.size); break;
        case Op::kWrite: ctx.mem().write(base + op.arg, op.size); break;
        case Op::kStream:
          ctx.mem().read(base + 0x8000 + static_cast<Addr>(streamed_++) * 64,
                         op.size);
          break;
      }
    }
    ++fired_;
  }

 private:
  int firings_;
  std::vector<Op> script_;
  int fired_ = 0;
  int streamed_ = 0;
};

/// Every SimResults field, one record per line.
std::string dump(const SimResults& r) {
  std::ostringstream os;
  const auto stats = [&os](const mem::CacheStats& s) {
    os << " l2 " << s.accesses << "/" << s.hits << "/" << s.misses << "/"
       << s.cold_misses << "/" << s.writebacks << "/" << s.evictions_by_other;
  };
  os << "makespan=" << r.makespan << " dispatches=" << r.dispatches
     << " instr=" << r.total_instructions << " l2=" << r.l2_accesses << "/"
     << r.l2_misses << " deadlocked=" << r.deadlocked
     << " limit=" << r.hit_dispatch_limit << " traffic="
     << r.traffic.l1_accesses << "/" << r.traffic.l2_accesses << "/"
     << r.traffic.dram_accesses << "/" << r.traffic.offchip_bytes << "\n";
  for (const auto& p : r.procs)
    os << "proc " << p.id << " " << p.cycles << "/" << p.busy_cycles << "/"
       << p.idle_cycles << "/" << p.switch_cycles << "/" << p.switches << "/"
       << p.instructions << "\n";
  for (const auto& t : r.tasks) {
    os << "task " << t.id << " " << t.name << " " << t.firings << "/"
       << t.instructions << "/" << t.compute_cycles << "/" << t.mem_cycles
       << "/" << t.active_cycles << "/" << t.l2_demand_misses;
    stats(t.l2);
    os << "\n";
  }
  for (const auto& b : r.buffers) {
    os << "buffer " << b.id << " " << b.name;
    stats(b.l2);
    os << "\n";
  }
  return os.str();
}

std::uint64_t fnv1a(const std::string& s) {
  return serialize::fnv1a64(reinterpret_cast<const std::uint8_t*>(s.data()),
                            s.size());
}

/// Each script puts one edge of the run-ahead rule into every firing;
/// kStream and the misses between them keep the L2 and bus shared.
std::vector<std::vector<Op>> edge_scripts() {
  using K = Op::Kind;
  return {
      // The firing's last access is an L1 hit.
      {{K::kCompute, 4}, {K::kStream}, {K::kRead, 0}, {K::kCompute, 2},
       {K::kRead, 8}, {K::kCompute, 3}, {K::kRead, 16}},
      // A two-line access whose lines both hit; a trailing gap carrier.
      {{K::kCompute, 1}, {K::kRead, 0}, {K::kRead, 64}, {K::kCompute, 2},
       {K::kRead, 60, 8}, {K::kStream}, {K::kRead, 60, 8}, {K::kCompute, 5}},
      // Size-0 gap carriers mid-firing.
      {{K::kCompute, 3}, {K::kRead, 0}, {K::kCompute, 4}, {K::kRead, 0, 0},
       {K::kCompute, 2}, {K::kRead, 0, 0}, {K::kRead, 8}, {K::kStream},
       {K::kCompute, 6}, {K::kRead, 8, 0}, {K::kRead, 16}},
      // Write hits on a clean and on a dirty line; dirty victims later.
      {{K::kRead, 0}, {K::kWrite, 4}, {K::kWrite, 8}, {K::kCompute, 2},
       {K::kWrite, 128}, {K::kWrite, 132}, {K::kStream}, {K::kRead, 128},
       {K::kCompute, 1}, {K::kRead, 256}},
  };
}

enum class Hook { kNone, kEpoch, kPhases };

/// Runs `engine` over `tasks`, first adding a no-op epoch hook or a
/// schedule of one phase holding every task plus an empty one when `hook`
/// asks: either keeps the engine to the (clock, index) order.
SimResults run_hooked(TimingEngine& engine, Hook hook,
                      const std::vector<Task*>& tasks,
                      std::uint64_t& run_ahead) {
  if (hook == Hook::kEpoch)
    engine.set_epoch_hook(300, [](Cycle, mem::MemoryHierarchy&) {});
  if (hook == Hook::kPhases) {
    std::vector<TaskId> all;
    for (const Task* t : tasks) all.push_back(t->id());
    engine.set_phase_schedule({all, {}});
  }
  const SimResults res = engine.run();
  run_ahead = engine.run_ahead_steps();
  return res;
}

/// Four processors run the edge scripts (firings 9-12 each). Under
/// kStatic the last two tasks share processor 2 and processor 3 idles;
/// under kMigrating an idle processor can often dispatch only once
/// another's queue drains (the task it wants is in flight there).
SimResults run_edges(SchedPolicy policy, Hook hook,
                     std::uint64_t& run_ahead) {
  PlatformConfig cfg = tiny_platform(4);
  cfg.quantum_firings = 3;
  Platform platform(cfg);
  Os os(policy, 4, 1);
  const auto scripts = edge_scripts();
  std::vector<std::unique_ptr<ScriptTask>> owned;
  std::vector<Task*> tasks;
  for (std::size_t i = 0; i < scripts.size(); ++i) {
    owned.push_back(std::make_unique<ScriptTask>(
        static_cast<TaskId>(i), 12 - static_cast<int>(i), scripts[i]));
    tasks.push_back(owned.back().get());
  }
  os.assign(0, 0);
  os.assign(1, 1);
  os.assign(2, 2);
  os.assign(3, 2);
  TimingEngine engine(platform, os, tasks);
  return run_hooked(engine, hook, tasks, run_ahead);
}

/// Three of the edge scripts on four processors, so one processor is
/// always idle. Under kMigrating it can dispatch only once another
/// processor's queue drains (every task is in flight elsewhere until
/// then); under kStatic it stays idle.
SimResults run_idle(SchedPolicy policy, Hook hook,
                    std::uint64_t& run_ahead) {
  Platform platform(tiny_platform(4));
  Os os(policy, 4, 2);
  const auto scripts = edge_scripts();
  ScriptTask a(0, 10, scripts[0]), b(1, 9, scripts[2]), c(2, 8, scripts[3]);
  os.assign(0, 0);
  os.assign(1, 1);
  os.assign(2, 2);
  const std::vector<Task*> tasks = {&a, &b, &c};
  TimingEngine engine(platform, os, tasks);
  return run_hooked(engine, hook, tasks, run_ahead);
}

struct EdgeGolden {
  const char* name;
  Cycle makespan;
  std::uint64_t hash;  // fnv1a(dump(results))
};

constexpr EdgeGolden kEdgeGoldens[] = {
    {"edges/migrating", 1241, 0x0e7f85ff15bbfb1dull},
    {"edges/static", 2220, 0xd4c53bb11d82f57bull},
    {"idle/migrating", 1097, 0x2c456c190d9219c2ull},
    {"idle/static", 921, 0xefc9bf261d25d5c1ull},
};

void expect_edge_golden(const std::string& name, const SimResults& r) {
  const std::string text = dump(r);
  const auto* g = std::find_if(
      std::begin(kEdgeGoldens), std::end(kEdgeGoldens),
      [&](const EdgeGolden& x) { return name == x.name; });
  ASSERT_NE(g, std::end(kEdgeGoldens)) << name;
  EXPECT_FALSE(r.deadlocked) << name;
  EXPECT_EQ(r.makespan, g->makespan) << name;
  EXPECT_EQ(fnv1a(text), g->hash)
      << name << " moved; pin: {\"" << name << "\", " << r.makespan
      << ", 0x" << std::hex << fnv1a(text) << "ull},\n"
      << text;
}

TEST(EngineRunAhead, EdgesMatchTheStrictOrder) {
  for (const SchedPolicy policy :
       {SchedPolicy::kMigrating, SchedPolicy::kStatic}) {
    const std::string tag =
        policy == SchedPolicy::kMigrating ? "migrating" : "static";
    using Run = SimResults (*)(SchedPolicy, Hook, std::uint64_t&);
    for (const auto& [name, run] :
         {std::pair<std::string, Run>{"edges/" + tag, run_edges},
          std::pair<std::string, Run>{"idle/" + tag, run_idle}}) {
      std::uint64_t steps = 0;
      const SimResults plain = run(policy, Hook::kNone, steps);
      expect_edge_golden(name, plain);
      EXPECT_GT(steps, 0u) << name;
      for (const Hook hook : {Hook::kEpoch, Hook::kPhases}) {
        std::uint64_t hooked_steps = 1;
        const SimResults strict = run(policy, hook, hooked_steps);
        EXPECT_EQ(hooked_steps, 0u) << name;
        EXPECT_EQ(dump(strict), dump(plain)) << name;
      }
    }
  }
}

TEST(Os, RoundRobinCyclesThroughReadyTasks) {
  Os os(SchedPolicy::kMigrating, 1);
  WorkTask a(0, "a", 5, 1, 1), b(1, "b", 5, 1, 1), c(2, "c", 5, 1, 1);
  std::vector<Task*> tasks = {&a, &b, &c};
  std::vector<bool> busy(3, false);
  const int first = os.pick(0, tasks, busy);
  const int second = os.pick(0, tasks, busy);
  const int third = os.pick(0, tasks, busy);
  EXPECT_NE(first, second);
  EXPECT_NE(second, third);
  EXPECT_NE(first, third);
}

TEST(Os, SkipsBusyTasks) {
  Os os(SchedPolicy::kMigrating, 1);
  WorkTask a(0, "a", 5, 1, 1), b(1, "b", 5, 1, 1);
  std::vector<Task*> tasks = {&a, &b};
  std::vector<bool> busy = {true, false};
  EXPECT_EQ(os.pick(0, tasks, busy), 1);
}

TEST(Os, StaticPolicyFiltersByAssignment) {
  Os os(SchedPolicy::kStatic, 2);
  WorkTask a(0, "a", 5, 1, 1), b(1, "b", 5, 1, 1);
  os.assign(0, 0);
  os.assign(1, 1);
  std::vector<Task*> tasks = {&a, &b};
  std::vector<bool> busy(2, false);
  EXPECT_EQ(os.pick(0, tasks, busy), 0);
  EXPECT_EQ(os.pick(1, tasks, busy), 1);
}

TEST(Os, UnassignedTaskNeverPickedUnderStatic) {
  Os os(SchedPolicy::kStatic, 1);
  WorkTask a(0, "a", 5, 1, 1);
  std::vector<Task*> tasks = {&a};
  std::vector<bool> busy = {false};
  EXPECT_EQ(os.pick(0, tasks, busy), -1);
}

}  // namespace
}  // namespace cms::sim
