// Tests for the MCKP solvers (the paper's ILP formulation).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "opt/mckp.hpp"

// GCC 12 emits a bogus -Wrestrict on inlined std::string concatenation in
// random_instance under -O2 (gcc PR105329); CI builds with -Werror.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wrestrict"
#endif

namespace cms::opt {
namespace {

std::vector<MckpGroup> random_instance(std::uint64_t seed, int groups,
                                       int options) {
  Rng rng(seed);
  std::vector<MckpGroup> out;
  for (int g = 0; g < groups; ++g) {
    MckpGroup grp;
    grp.name = "g" + std::to_string(g);
    double cost = 1000.0 + rng.next_double() * 1000.0;
    std::uint32_t size = 1;
    for (int i = 0; i < options; ++i) {
      grp.items.push_back({size, cost});
      size += 1 + static_cast<std::uint32_t>(rng.below(4));
      cost *= 0.3 + rng.next_double() * 0.6;  // diminishing misses
    }
    out.push_back(std::move(grp));
  }
  return out;
}

TEST(Mckp, TrivialSingleGroup) {
  std::vector<MckpGroup> groups = {{"t", {{1, 100.0}, {4, 10.0}, {8, 1.0}}}};
  const MckpSolution s = solve_mckp_dp(groups, 8);
  ASSERT_TRUE(s.feasible);
  EXPECT_EQ(s.choice[0], 2);
  EXPECT_DOUBLE_EQ(s.total_cost, 1.0);
}

TEST(Mckp, CapacityForcesCompromise) {
  std::vector<MckpGroup> groups = {{"a", {{1, 100.0}, {8, 0.0}}},
                                   {"b", {{1, 50.0}, {8, 0.0}}}};
  const MckpSolution s = solve_mckp_dp(groups, 9);
  ASSERT_TRUE(s.feasible);
  // Only one group can get 8 sets; it should be "a" (larger gain).
  EXPECT_DOUBLE_EQ(s.total_cost, 50.0);
  EXPECT_EQ(s.total_size, 9u);
}

TEST(Mckp, InfeasibleWhenMinimumsExceedCapacity) {
  std::vector<MckpGroup> groups = {{"a", {{4, 1.0}}}, {"b", {{4, 1.0}}}};
  EXPECT_FALSE(solve_mckp_dp(groups, 7).feasible);
  EXPECT_FALSE(solve_mckp_branch_bound(groups, 7).feasible);
  EXPECT_FALSE(solve_mckp_greedy(groups, 7).feasible);
  EXPECT_FALSE(solve_mckp_brute(groups, 7).feasible);
}

TEST(Mckp, EmptyInstanceIsFeasible) {
  const MckpSolution s = solve_mckp_dp({}, 10);
  EXPECT_TRUE(s.feasible);
  EXPECT_EQ(s.total_cost, 0.0);
  EXPECT_EQ(s.total_size, 0u);
}

TEST(Mckp, UnusedCapacityAllowed) {
  std::vector<MckpGroup> groups = {{"a", {{1, 5.0}, {2, 5.0}}}};
  const MckpSolution s = solve_mckp_dp(groups, 100);
  ASSERT_TRUE(s.feasible);
  EXPECT_DOUBLE_EQ(s.total_cost, 5.0);
}

// ---- Cross-validation properties over random instances ----

class MckpCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(MckpCrossCheck, DpMatchesBruteForce) {
  const auto groups = random_instance(static_cast<std::uint64_t>(GetParam()), 5, 4);
  for (const std::uint32_t cap : {8u, 16u, 32u, 64u}) {
    const MckpSolution dp = solve_mckp_dp(groups, cap);
    const MckpSolution brute = solve_mckp_brute(groups, cap);
    ASSERT_EQ(dp.feasible, brute.feasible) << "cap " << cap;
    if (dp.feasible) {
      EXPECT_NEAR(dp.total_cost, brute.total_cost, 1e-9) << "cap " << cap;
      EXPECT_LE(dp.total_size, cap);
    }
  }
}

TEST_P(MckpCrossCheck, BranchBoundMatchesDp) {
  const auto groups = random_instance(static_cast<std::uint64_t>(GetParam()) + 100, 8, 5);
  for (const std::uint32_t cap : {16u, 40u, 100u}) {
    const MckpSolution dp = solve_mckp_dp(groups, cap);
    const MckpSolution bb = solve_mckp_branch_bound(groups, cap);
    ASSERT_EQ(dp.feasible, bb.feasible);
    if (dp.feasible) {
      EXPECT_NEAR(dp.total_cost, bb.total_cost, 1e-9);
    }
  }
}

TEST_P(MckpCrossCheck, GreedyIsFeasibleAndNotBetterThanOptimal) {
  const auto groups = random_instance(static_cast<std::uint64_t>(GetParam()) + 200, 10, 5);
  for (const std::uint32_t cap : {20u, 60u, 200u}) {
    const MckpSolution dp = solve_mckp_dp(groups, cap);
    const MckpSolution greedy = solve_mckp_greedy(groups, cap);
    if (!dp.feasible) continue;
    ASSERT_TRUE(greedy.feasible);
    EXPECT_LE(greedy.total_size, cap);
    EXPECT_GE(greedy.total_cost + 1e-9, dp.total_cost);
  }
}

TEST_P(MckpCrossCheck, SolutionSizeAccountingConsistent) {
  const auto groups = random_instance(static_cast<std::uint64_t>(GetParam()) + 300, 6, 4);
  const MckpSolution s = solve_mckp_dp(groups, 50);
  if (!s.feasible) return;
  double cost = 0;
  std::uint32_t size = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& it = groups[g].items[static_cast<std::size_t>(s.choice[g])];
    cost += it.cost;
    size += it.size;
  }
  EXPECT_NEAR(cost, s.total_cost, 1e-9);
  EXPECT_EQ(size, s.total_size);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpCrossCheck, ::testing::Range(0, 10));

TEST(Mckp, CapacityPastEveryLargestItemChangesNothing) {
  // Past the sum of every group's largest item, capacity cannot be used:
  // a 2^24-set capacity gives exactly the choice at that sum, and the DP
  // table must not grow with it.
  for (const std::uint64_t seed : {400u, 401u, 402u}) {
    const auto groups = random_instance(seed, 3, 4);
    std::uint32_t sum_max = 0;
    for (const MckpGroup& g : groups) {
      std::uint32_t largest = 0;
      for (const MckpItem& it : g.items) largest = std::max(largest, it.size);
      sum_max += largest;
    }
    const MckpSolution at_sum = solve_mckp_dp(groups, sum_max);
    const MckpSolution huge = solve_mckp_dp(groups, 1u << 24);
    ASSERT_TRUE(at_sum.feasible);
    ASSERT_TRUE(huge.feasible);
    EXPECT_EQ(huge.choice, at_sum.choice) << "seed " << seed;
    EXPECT_EQ(huge.total_cost, at_sum.total_cost) << "seed " << seed;
    EXPECT_EQ(huge.total_size, at_sum.total_size) << "seed " << seed;
  }
}

// ---- Dense-grid pruning (prune_mckp_items) ----

TEST(MckpPrune, RemovesDominatedKeepsKnees) {
  // Flat stretches and a non-monotone bump: only strict improvements
  // survive, in size order.
  std::vector<MckpItem> items = {{1, 100}, {2, 100}, {4, 50}, {8, 50},
                                 {16, 60}, {32, 10}};
  const std::size_t removed = prune_mckp_items(items);
  EXPECT_EQ(removed, 3u);
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].size, 1u);
  EXPECT_EQ(items[1].size, 4u);
  EXPECT_EQ(items[2].size, 32u);
}

TEST(MckpPrune, SmallestSizeAlwaysSurvives) {
  std::vector<MckpItem> items = {{4, 5.0}, {1, 5.0}, {2, 5.0}};
  prune_mckp_items(items);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].size, 1u);  // feasibility anchor
}

TEST(MckpPrune, PreservesDpOptimumOnRandomDenseInstances) {
  // Dominance pruning is exact: the DP on the pruned instance must reach
  // the same optimal cost as brute force on the original.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(seed);
    std::vector<MckpGroup> original;
    for (int g = 0; g < 4; ++g) {
      MckpGroup grp;
      grp.name = "g" + std::to_string(g);
      double cost = 1000.0 + rng.next_double() * 1000.0;
      for (std::uint32_t size = 1; size <= 24; ++size) {
        grp.items.push_back({size, cost});
        if (rng.chance(0.25)) cost *= 0.4 + rng.next_double() * 0.5;
      }
      original.push_back(std::move(grp));
    }
    std::vector<MckpGroup> pruned = original;
    for (auto& grp : pruned) prune_mckp_items(grp.items);

    for (const std::uint32_t cap : {8u, 30u, 96u}) {
      const MckpSolution ref = solve_mckp_brute(original, cap);
      const MckpSolution got = solve_mckp_dp(pruned, cap);
      EXPECT_EQ(ref.feasible, got.feasible) << "seed " << seed;
      if (ref.feasible) {
        EXPECT_NEAR(ref.total_cost, got.total_cost, 1e-9)
            << "seed " << seed << " cap " << cap;
      }
    }
  }
}

TEST(MckpPrune, CollinearThinningDropsStraightRunsKeepsKnees) {
  // A perfectly linear ramp collapses to its endpoints...
  std::vector<MckpItem> line;
  for (std::uint32_t s = 1; s <= 32; ++s)
    line.push_back({s, 1000.0 - 10.0 * s});
  prune_mckp_items(line, 0.01);
  EXPECT_EQ(line.size(), 2u);

  // ...while a sharp knee survives any reasonable tolerance.
  std::vector<MckpItem> knee = {{1, 1000}, {2, 990}, {3, 980}, {4, 100},
                                {5, 90},   {6, 80}};
  prune_mckp_items(knee, 0.01);
  bool kept_knee = false;
  for (const auto& it : knee) kept_knee = kept_knee || it.size == 4;
  EXPECT_TRUE(kept_knee);
}

TEST(MckpPrune, ThinningErrorBoundHoldsOnSmoothConvexCurves) {
  // The documented contract: every dropped point lies within
  // eps x (cost range) of the segment between its two KEPT neighbours.
  // A smooth convex curve is the adversarial case — greedy
  // next-point chord tests let the error compound well past the bound.
  std::vector<MckpItem> items;
  for (std::uint32_t s = 1; s <= 64; ++s) {
    const double d = 64.0 - static_cast<double>(s);
    items.push_back({s, d * d});
  }
  const std::vector<MckpItem> original = items;
  const double eps = 0.01;
  prune_mckp_items(items, eps);
  const double tol = eps * (original.front().cost - original.back().cost);

  for (const MckpItem& p : original) {
    // Kept neighbours around p.
    std::size_t hi = 0;
    while (items[hi].size < p.size) ++hi;
    if (items[hi].size == p.size) continue;  // p survived
    const MckpItem& a = items[hi - 1];
    const MckpItem& c = items[hi];
    const double t = static_cast<double>(p.size - a.size) /
                     static_cast<double>(c.size - a.size);
    const double interp = a.cost + t * (c.cost - a.cost);
    EXPECT_LE(std::abs(interp - p.cost), tol + 1e-9) << "size " << p.size;
  }
}

TEST(MckpPrune, ZeroEpsIsLossless) {
  std::vector<MckpItem> items;
  for (std::uint32_t s = 1; s <= 16; ++s)
    items.push_back({s, 100.0 - static_cast<double>(s)});
  prune_mckp_items(items, 0.0);
  EXPECT_EQ(items.size(), 16u);  // strictly decreasing: nothing dominated
}

}  // namespace
}  // namespace cms::opt
