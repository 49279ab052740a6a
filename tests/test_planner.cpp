// Tests for the partition planner and supporting opt pieces.
#include <gtest/gtest.h>

#include <cmath>

#include "core/scenario.hpp"
#include "opt/compositionality.hpp"
#include "opt/planner.hpp"
#include "opt/power.hpp"
#include "opt/profile.hpp"

namespace cms::opt {
namespace {

mem::CacheConfig l2_256sets() {
  return mem::CacheConfig{.size_bytes = 256 * 4 * 64, .line_bytes = 64, .ways = 4};
}

std::vector<kpn::SharedBufferInfo> sample_buffers() {
  return {
      {0, "fifoA", kpn::BufferKind::kFifo, 0x1000, 64 + 16 * 64},  // 17 lines
      {1, "frame", kpn::BufferKind::kFrame, 0x8000, 16 * 1024},
      {2, "seg", kpn::BufferKind::kSegment, 0x20000, 4096},
  };
}

MissProfile sample_profile() {
  MissProfile prof;
  for (const std::string task : {"t0", "t1"}) {
    double misses = task == "t0" ? 4000 : 1000;
    for (const std::uint32_t s : {1u, 2u, 4u, 8u, 16u, 32u}) {
      prof.add_sample(task, s, misses, misses * 10, 1000);
      misses *= 0.4;
    }
  }
  // The frame buffer improves sharply at 64 sets.
  for (const std::uint32_t s : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    prof.add_sample("frame", s, s >= 64 ? 100.0 : 3000.0, 0, 0);
  }
  return prof;
}

TEST(SetsForBytes, RoundsUpToPow2Sets) {
  const auto l2 = l2_256sets();
  EXPECT_EQ(sets_for_bytes(1, l2), 1u);
  EXPECT_EQ(sets_for_bytes(64 * 4, l2), 1u);       // 4 lines = 1 set
  EXPECT_EQ(sets_for_bytes(64 * 5, l2), 2u);       // 5 lines -> 2 sets
  EXPECT_EQ(sets_for_bytes(64 * 4 * 5, l2), 8u);   // 20 lines -> 5 -> pow2 8
  EXPECT_EQ(sets_for_bytes(64 * 4 * 5, l2, false), 5u);
}

TEST(Planner, ProducesDisjointFullCoveragePlan) {
  const auto plan = plan_partitions(sample_profile(), {{0, "t0"}, {1, "t1"}},
                                    sample_buffers(), l2_256sets(), {});
  ASSERT_TRUE(plan.feasible);
  EXPECT_LE(plan.used_sets, plan.total_sets);
  // Every client present.
  for (const char* name : {"t0", "t1", "fifoA", "frame", "seg"})
    EXPECT_NE(plan.find(name), nullptr) << name;
  // Disjoint contiguous layout.
  for (std::size_t i = 1; i < plan.entries.size(); ++i)
    EXPECT_EQ(plan.entries[i].partition.base_set,
              plan.entries[i - 1].partition.base_set +
                  plan.entries[i - 1].partition.num_sets);
}

TEST(Planner, FifoGetsFootprintSizedPartition) {
  const auto plan = plan_partitions(sample_profile(), {{0, "t0"}, {1, "t1"}},
                                    sample_buffers(), l2_256sets(), {});
  const PlanEntry* fifo = plan.find("fifoA");
  ASSERT_NE(fifo, nullptr);
  // 17 lines / 4 ways -> 5 -> pow2 8 sets.
  EXPECT_EQ(fifo->sets, 8u);
}

TEST(Planner, FrameBufferSizedFromMeasuredCurve) {
  const auto plan = plan_partitions(sample_profile(), {{0, "t0"}, {1, "t1"}},
                                    sample_buffers(), l2_256sets(), {});
  const PlanEntry* frame = plan.find("frame");
  ASSERT_NE(frame, nullptr);
  EXPECT_EQ(frame->sets, 64u);  // the curve's knee
}

TEST(Planner, SegmentGetsFixedSets) {
  PlannerConfig cfg;
  cfg.segment_sets = 4;
  const auto plan = plan_partitions(sample_profile(), {{0, "t0"}, {1, "t1"}},
                                    sample_buffers(), l2_256sets(), cfg);
  EXPECT_EQ(plan.find("seg")->sets, 4u);
}

TEST(Planner, TasksGetMoreCacheWhenItPays) {
  const auto plan = plan_partitions(sample_profile(), {{0, "t0"}, {1, "t1"}},
                                    sample_buffers(), l2_256sets(), {});
  // Plenty of capacity: both tasks should reach the largest measured size.
  EXPECT_EQ(plan.find("t0")->sets, 32u);
  EXPECT_EQ(plan.find("t1")->sets, 32u);
}

TEST(Planner, InfeasibleWhenBuffersExceedCache) {
  // Even with graceful degradation (FIFO cap and segment sets reduced to
  // 1), two fixed buffers cannot fit a 2-set cache.
  mem::CacheConfig tiny;
  tiny.size_bytes = 2 * 4 * 64;  // 2 sets
  const auto plan = plan_partitions(sample_profile(), {{0, "t0"}},
                                    sample_buffers(), tiny, {});
  EXPECT_FALSE(plan.feasible);
}

TEST(Planner, DegradesFifoAllocationsInSmallCaches) {
  // At 16 sets the all-hit FIFO policy (8 sets) would eat half the cache;
  // the planner halves the cap until tasks fit.
  mem::CacheConfig small;
  small.size_bytes = 16 * 4 * 64;
  const auto plan = plan_partitions(sample_profile(), {{0, "t0"}, {1, "t1"}},
                                    sample_buffers(), small, {});
  ASSERT_TRUE(plan.feasible);
  EXPECT_LT(plan.find("fifoA")->sets, 8u);
  EXPECT_LE(plan.used_sets, plan.total_sets);
}

TEST(Planner, ApplyInstallsPartitionsAndEnables) {
  const auto plan = plan_partitions(sample_profile(), {{0, "t0"}, {1, "t1"}},
                                    sample_buffers(), l2_256sets(), {});
  mem::PartitionedCache cache(l2_256sets());
  plan.apply(cache);
  EXPECT_TRUE(cache.partitioning_enabled());
  EXPECT_TRUE(cache.partition_table().disjoint());
  EXPECT_EQ(cache.partition_table().size(), plan.entries.size());
}

TEST(Planner, ConsumesDenseGridsAndPruningIsExact) {
  // A 64-point profile per client, shaped like a replay sweep: long flat
  // stretches with a knee. The planner must consume it directly, and
  // pruning must keep both knees (MckpPrune checks the optimum is exact).
  MissProfile prof;
  for (const std::string task : {"t0", "t1"}) {
    const std::uint32_t knee = task == "t0" ? 24 : 40;
    for (std::uint32_t s = 1; s <= 64; ++s) {
      const double misses = (task == "t0" ? 4000.0 : 2500.0) /
                            (s >= knee ? 10.0 : 1.0);
      prof.add_sample(task, s, misses, misses * 10, 1000);
    }
  }
  const auto tasks =
      std::vector<std::pair<TaskId, std::string>>{{0, "t0"}, {1, "t1"}};
  const auto plan =
      plan_partitions(prof, tasks, sample_buffers(), l2_256sets(), {});
  ASSERT_TRUE(plan.feasible);
  // Both knees are worth taking within 256 sets (24 + 40 + buffers fit).
  EXPECT_EQ(plan.find("t0")->sets, 24u);
  EXPECT_EQ(plan.find("t1")->sets, 40u);
}

TEST(Planner, UniformPlanGivesEveryTaskSameSets) {
  const auto plan =
      uniform_plan(16, {{0, "t0"}, {1, "t1"}}, sample_buffers(), l2_256sets(), {});
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.find("t0")->sets, 16u);
  EXPECT_EQ(plan.find("t1")->sets, 16u);
  EXPECT_EQ(plan.find("frame")->sets, 16u);  // frames sweep too
  EXPECT_EQ(plan.find("fifoA")->sets, 8u);   // fifos keep policy
  EXPECT_EQ(plan.used_sets, plan.total_sets);
}

TEST(Profile, AveragesAcrossSamples) {
  MissProfile prof;
  prof.add_sample("t", 4, 100, 1000, 10);
  prof.add_sample("t", 4, 200, 2000, 10);
  EXPECT_DOUBLE_EQ(prof.misses("t", 4), 150.0);
  EXPECT_DOUBLE_EQ(prof.active_cycles("t", 4), 1500.0);
  EXPECT_EQ(prof.curve("t").at(4).misses.count(), 2u);
}

TEST(Profile, SizesSortedAndNamesListed) {
  MissProfile prof;
  prof.add_sample("b", 8, 1, 0, 0);
  prof.add_sample("a", 2, 1, 0, 0);
  prof.add_sample("a", 1, 1, 0, 0);
  const auto names = prof.task_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "a");
  const auto sizes = prof.sizes("a");
  ASSERT_EQ(sizes.size(), 2u);
  EXPECT_LT(sizes[0], sizes[1]);
  EXPECT_EQ(prof.misses("missing", 1), 0.0);
}

TEST(Power, EnergyAccounting) {
  sim::SimResults res;
  res.traffic.l1_accesses = 1000000;
  res.traffic.l2_accesses = 100000;
  res.traffic.dram_accesses = 10000;
  res.makespan = 300000000;  // 1 second at 300 MHz
  PowerConfig cfg;
  const PowerReport rep = estimate_power(res, cfg);
  EXPECT_NEAR(rep.seconds, 1.0, 1e-9);
  EXPECT_NEAR(rep.static_mj, cfg.static_mw, 1e-9);
  EXPECT_NEAR(rep.l1_mj, 1000000 * cfg.l1_access_nj * 1e-6, 1e-12);
  EXPECT_GT(rep.total_mj, rep.static_mj);
  EXPECT_NEAR(rep.avg_watts, rep.total_mj * 1e-3, 1e-9);
}

TEST(Power, FewerMissesMeansLessEnergy) {
  sim::SimResults good, bad;
  good.traffic = {1000000, 50000, 1000, 64000};
  bad.traffic = {1000000, 50000, 50000, 3200000};
  good.makespan = bad.makespan = 1000000;
  EXPECT_LT(estimate_power(good).total_mj, estimate_power(bad).total_mj);
}

TEST(Compositionality, ReportMath) {
  MissProfile prof;
  prof.add_sample("a", 4, 100, 0, 0);
  prof.add_sample("b", 8, 50, 0, 0);

  PartitionPlan plan;
  PlanEntry ea;
  ea.name = "a";
  ea.is_task = true;
  ea.sets = 4;
  PlanEntry eb;
  eb.name = "b";
  eb.is_task = true;
  eb.sets = 8;
  plan.entries = {ea, eb};

  sim::SimResults run;
  sim::TaskRunStats ta;
  ta.name = "a";
  ta.l2.misses = 110;
  sim::TaskRunStats tb;
  tb.name = "b";
  tb.l2.misses = 50;
  run.tasks = {ta, tb};

  const auto rep = compare_expected_vs_simulated(prof, plan, run);
  ASSERT_EQ(rep.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(rep.total_simulated, 160.0);
  EXPECT_DOUBLE_EQ(rep.rows[0].abs_diff, 10.0);
  EXPECT_NEAR(rep.max_rel_to_total, 10.0 / 160.0, 1e-12);
  EXPECT_TRUE(rep.within(0.10));
  EXPECT_FALSE(rep.within(0.01));
}

// ---- Curvature-eps auto-tune (PlannerConfig::kAutoCurvatureEps) ----

TEST(AutoCurvatureEps, ZeroWithoutRepeatedMeasurements) {
  // Single-sample points carry no spread information: auto-tune must stay
  // lossless (eps 0) rather than guess a tolerance.
  EXPECT_EQ(auto_curvature_eps(sample_profile()), 0.0);
  EXPECT_EQ(auto_curvature_eps(MissProfile{}), 0.0);
}

TEST(AutoCurvatureEps, TracksRelativeJitterSpreadAndClamps) {
  MissProfile prof;
  for (const double m : {100.0, 100.0}) prof.add_sample("t", 1, m, 0, 0);
  for (const double m : {58.0, 62.0}) prof.add_sample("t", 2, m, 0, 0);
  for (const double m : {30.0, 30.0}) prof.add_sample("t", 3, m, 0, 0);
  for (const double m : {10.0, 10.0}) prof.add_sample("t", 4, m, 0, 0);
  // Range 90, noisiest point stddev sqrt(8) (Welford, n-1 denominator).
  EXPECT_DOUBLE_EQ(auto_curvature_eps(prof), std::sqrt(8.0) / 90.0);

  // A pathologically noisy point is clamped: thinning tolerance never
  // exceeds 5% of the cost range.
  for (const double m : {0.0, 90.0}) prof.add_sample("t", 5, m, 0, 0);
  EXPECT_DOUBLE_EQ(auto_curvature_eps(prof), 0.05);
}

TEST(AutoCurvatureEps, IsTheDefaultAndLosslessOnNoiselessProfiles) {
  PlannerConfig def;
  EXPECT_EQ(def.curvature_eps, PlannerConfig::kAutoCurvatureEps);

  PlannerConfig exact = def;
  exact.curvature_eps = 0.0;
  const auto auto_plan = plan_partitions(
      sample_profile(), {{0, "t0"}, {1, "t1"}}, sample_buffers(),
      l2_256sets(), def);
  const auto exact_plan = plan_partitions(
      sample_profile(), {{0, "t0"}, {1, "t1"}}, sample_buffers(),
      l2_256sets(), exact);
  // No repeated measurements -> auto eps 0 -> bit-identical plans.
  EXPECT_TRUE(auto_plan.identical(exact_plan));
}

TEST(AutoCurvatureEps, KneesSurviveAcrossBuiltInScenarios) {
  // Profile every (tiny-content) built-in with repeated jitter runs, then
  // plan with auto-tuned thinning vs. lossless pruning: the auto plan's
  // expected misses stay within the thinning error bound — eps x cost
  // range per MCKP group — so no statistically significant knee was
  // dropped. (The production-content scenarios share this exact code
  // path; their content only scales the curves.)
  for (const std::string name :
       {"jpeg-canny-tiny", "mpeg2-tiny", "mpeg2-tiny-rand",
        "jpeg-canny-dense"}) {
    const core::ScenarioSpec spec = core::scenarios().get(name);
    core::ExperimentConfig cfg = spec.experiment;
    cfg.profile_runs = 2;  // jitter spread needs repeated measurements
    cfg.profiler = core::ProfilerMode::kTraceReplay;
    const core::Experiment exp(spec.factory, cfg);
    const MissProfile prof = exp.profile();

    const double eps = auto_curvature_eps(prof);
    EXPECT_GE(eps, 0.0) << name;
    EXPECT_LE(eps, 0.05) << name;

    PlannerConfig auto_cfg = cfg.planner;
    auto_cfg.curvature_eps = PlannerConfig::kAutoCurvatureEps;
    PlannerConfig exact_cfg = cfg.planner;
    exact_cfg.curvature_eps = 0.0;
    const auto tasks = exp.tasks();
    const auto buffers = exp.buffers();
    const mem::CacheConfig& l2 = cfg.platform.hier.l2;
    const auto auto_plan =
        plan_partitions(prof, tasks, buffers, l2, auto_cfg);
    const auto exact_plan =
        plan_partitions(prof, tasks, buffers, l2, exact_cfg);
    ASSERT_TRUE(auto_plan.feasible) << name;
    ASSERT_TRUE(exact_plan.feasible) << name;

    // Thinning error bound: eps x (cost range) per profiled group.
    double bound = 1e-6;
    for (const std::string& task : prof.task_names()) {
      double lo = 0.0, hi = 0.0;
      bool first = true;
      for (const std::uint32_t s : prof.sizes(task)) {
        const double m = prof.misses(task, s);
        lo = first ? m : std::min(lo, m);
        hi = first ? m : std::max(hi, m);
        first = false;
      }
      bound += eps * (hi - lo);
    }
    EXPECT_LE(std::abs(auto_plan.expected_task_misses -
                       exact_plan.expected_task_misses),
              bound)
        << name << " (auto eps " << eps << ")";
  }
}

}  // namespace
}  // namespace cms::opt
