#include "opt/mckp.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace cms::opt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double solution_cost(const std::vector<MckpGroup>& groups,
                     const std::vector<int>& choice) {
  double c = 0.0;
  for (std::size_t g = 0; g < groups.size(); ++g)
    c += groups[g].items[static_cast<std::size_t>(choice[g])].cost;
  return c;
}

std::uint32_t solution_size(const std::vector<MckpGroup>& groups,
                            const std::vector<int>& choice) {
  std::uint32_t s = 0;
  for (std::size_t g = 0; g < groups.size(); ++g)
    s += groups[g].items[static_cast<std::size_t>(choice[g])].size;
  return s;
}

MckpSolution finish(const std::vector<MckpGroup>& groups,
                    std::vector<int> choice) {
  MckpSolution sol;
  sol.feasible = true;
  sol.total_cost = solution_cost(groups, choice);
  sol.total_size = solution_size(groups, choice);
  sol.choice = std::move(choice);
  return sol;
}

}  // namespace

MckpSolution solve_mckp_dp(const std::vector<MckpGroup>& groups,
                           std::uint32_t capacity) {
  const std::size_t n = groups.size();
  if (n == 0) return finish(groups, {});

  // Capacity past the sum of every group's largest item cannot be used:
  // every choice fits there, so the table stops at that sum (the choice
  // is the same) rather than growing with the caller's capacity.
  std::uint64_t usable = 0;
  for (const MckpGroup& g : groups) {
    std::uint32_t largest = 0;
    for (const MckpItem& it : g.items) largest = std::max(largest, it.size);
    usable += largest;
  }
  capacity = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(capacity, usable));

  // dp[g][c] = min cost using groups [0, g) within size c; parent choice
  // tracked for reconstruction.
  const std::size_t width = static_cast<std::size_t>(capacity) + 1;
  std::vector<double> prev(width, kInf), cur(width, kInf);
  std::vector<std::vector<int>> pick(n, std::vector<int>(width, -1));
  prev[0] = 0.0;
  // Allow unused capacity: propagate minima along c as we go.
  for (std::size_t c = 1; c < width; ++c) prev[c] = prev[c - 1];

  for (std::size_t g = 0; g < n; ++g) {
    std::fill(cur.begin(), cur.end(), kInf);
    for (std::size_t c = 0; c < width; ++c) {
      for (std::size_t i = 0; i < groups[g].items.size(); ++i) {
        const MckpItem& it = groups[g].items[i];
        if (it.size > c) continue;
        const double base = prev[c - it.size];
        if (base == kInf) continue;
        if (base + it.cost < cur[c]) {
          cur[c] = base + it.cost;
          pick[g][c] = static_cast<int>(i);
        }
      }
    }
    // Monotone closure: more capacity never hurts. Keep pick consistent.
    for (std::size_t c = 1; c < width; ++c) {
      if (cur[c - 1] < cur[c]) {
        cur[c] = cur[c - 1];
        pick[g][c] = pick[g][c - 1];
      }
    }
    std::swap(prev, cur);
  }

  if (prev[capacity] == kInf) return {};

  // Reconstruct: walk groups backwards. Because of the monotone closure
  // pick[g][c] already points at the best choice at capacity c.
  std::vector<int> choice(n, -1);
  // Recompute capacities by replaying: find for the last group the pick,
  // subtract its size, continue.
  std::uint32_t c = capacity;
  for (std::size_t g = n; g-- > 0;) {
    // Find the effective capacity this row used (the closure may have
    // shifted it left; walk down while the pick is identical in cost).
    const int i = pick[g][c];
    assert(i >= 0);
    choice[g] = i;
    c -= groups[g].items[static_cast<std::size_t>(i)].size;
  }
  return finish(groups, std::move(choice));
}

namespace {

struct BbContext {
  const std::vector<MckpGroup>* groups;
  std::uint32_t capacity;
  double best_cost;
  std::vector<int> best_choice;
  std::vector<int> choice;
  // Per-group minimum cost and minimum size over all items (optimistic
  // completion bounds).
  std::vector<double> min_cost_suffix;
  std::vector<std::uint32_t> min_size_suffix;
};

void bb_recurse(BbContext& ctx, std::size_t g, std::uint32_t used, double cost) {
  const auto& groups = *ctx.groups;
  if (g == groups.size()) {
    if (cost < ctx.best_cost) {
      ctx.best_cost = cost;
      ctx.best_choice = ctx.choice;
    }
    return;
  }
  // Optimistic bound: even taking every remaining group's cheapest item.
  if (cost + ctx.min_cost_suffix[g] >= ctx.best_cost) return;
  // Feasibility: remaining groups need at least min_size_suffix sets.
  if (used + ctx.min_size_suffix[g] > ctx.capacity) return;

  // Explore items cheapest-cost-first for early tight bounds.
  std::vector<std::size_t> order(groups[g].items.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return groups[g].items[a].cost < groups[g].items[b].cost;
  });
  for (const std::size_t i : order) {
    const MckpItem& it = groups[g].items[i];
    const std::uint32_t need =
        g + 1 < groups.size() ? ctx.min_size_suffix[g + 1] : 0;
    if (used + it.size + need > ctx.capacity) continue;
    ctx.choice[g] = static_cast<int>(i);
    bb_recurse(ctx, g + 1, used + it.size, cost + it.cost);
  }
}

}  // namespace

MckpSolution solve_mckp_branch_bound(const std::vector<MckpGroup>& groups,
                                     std::uint32_t capacity) {
  const std::size_t n = groups.size();
  BbContext ctx;
  ctx.groups = &groups;
  ctx.capacity = capacity;
  ctx.best_cost = kInf;
  ctx.choice.assign(n, -1);
  ctx.min_cost_suffix.assign(n + 1, 0.0);
  ctx.min_size_suffix.assign(n + 1, 0);
  for (std::size_t g = n; g-- > 0;) {
    double mc = kInf;
    std::uint32_t ms = std::numeric_limits<std::uint32_t>::max();
    for (const auto& it : groups[g].items) {
      mc = std::min(mc, it.cost);
      ms = std::min(ms, it.size);
    }
    ctx.min_cost_suffix[g] = ctx.min_cost_suffix[g + 1] + mc;
    ctx.min_size_suffix[g] = ctx.min_size_suffix[g + 1] + ms;
  }

  bb_recurse(ctx, 0, 0, 0.0);
  if (ctx.best_cost == kInf) return {};
  return finish(groups, std::move(ctx.best_choice));
}

MckpSolution solve_mckp_greedy(const std::vector<MckpGroup>& groups,
                               std::uint32_t capacity) {
  const std::size_t n = groups.size();
  std::vector<int> choice(n, -1);
  std::uint32_t used = 0;

  // Start each group at its smallest item (ties: cheapest).
  for (std::size_t g = 0; g < n; ++g) {
    int best = -1;
    for (std::size_t i = 0; i < groups[g].items.size(); ++i) {
      const auto& it = groups[g].items[i];
      if (best < 0 ||
          it.size < groups[g].items[static_cast<std::size_t>(best)].size ||
          (it.size == groups[g].items[static_cast<std::size_t>(best)].size &&
           it.cost < groups[g].items[static_cast<std::size_t>(best)].cost))
        best = static_cast<int>(i);
    }
    choice[g] = best;
    used += groups[g].items[static_cast<std::size_t>(best)].size;
  }
  if (used > capacity) return {};  // even the minimal allocation is too big

  // Repeatedly apply the best miss-per-set upgrade that fits.
  for (;;) {
    double best_gain = 0.0;
    std::size_t best_g = 0;
    int best_i = -1;
    for (std::size_t g = 0; g < n; ++g) {
      const MckpItem& cur = groups[g].items[static_cast<std::size_t>(choice[g])];
      for (std::size_t i = 0; i < groups[g].items.size(); ++i) {
        const MckpItem& it = groups[g].items[i];
        if (it.size <= cur.size || it.cost >= cur.cost) continue;
        if (used - cur.size + it.size > capacity) continue;
        const double gain =
            (cur.cost - it.cost) / static_cast<double>(it.size - cur.size);
        if (gain > best_gain) {
          best_gain = gain;
          best_g = g;
          best_i = static_cast<int>(i);
        }
      }
    }
    if (best_i < 0) break;
    used -= groups[best_g].items[static_cast<std::size_t>(choice[best_g])].size;
    choice[best_g] = best_i;
    used += groups[best_g].items[static_cast<std::size_t>(best_i)].size;
  }
  return finish(groups, std::move(choice));
}

namespace {
void brute_recurse(const std::vector<MckpGroup>& groups, std::uint32_t capacity,
                   std::size_t g, std::uint32_t used, double cost,
                   std::vector<int>& choice, MckpSolution& best) {
  if (g == groups.size()) {
    if (!best.feasible || cost < best.total_cost) {
      best.feasible = true;
      best.total_cost = cost;
      best.total_size = used;
      best.choice = choice;
    }
    return;
  }
  for (std::size_t i = 0; i < groups[g].items.size(); ++i) {
    const MckpItem& it = groups[g].items[i];
    if (used + it.size > capacity) continue;
    choice[g] = static_cast<int>(i);
    brute_recurse(groups, capacity, g + 1, used + it.size, cost + it.cost,
                  choice, best);
  }
}
}  // namespace

MckpSolution solve_mckp_brute(const std::vector<MckpGroup>& groups,
                              std::uint32_t capacity) {
  MckpSolution best;
  std::vector<int> choice(groups.size(), -1);
  brute_recurse(groups, capacity, 0, 0, 0.0, choice, best);
  return best;
}

std::size_t prune_mckp_items(std::vector<MckpItem>& items,
                             double collinear_eps) {
  const std::size_t before = items.size();
  if (items.size() < 2) return 0;
  std::sort(items.begin(), items.end(),
            [](const MckpItem& a, const MckpItem& b) {
              return a.size != b.size ? a.size < b.size : a.cost < b.cost;
            });

  // Dominance: keep an item only when it is strictly cheaper than every
  // smaller-or-equal alternative. The survivors form a strictly
  // decreasing cost curve over increasing size; the smallest size always
  // survives, so group feasibility is preserved.
  std::vector<MckpItem> kept;
  kept.reserve(items.size());
  double best = kInf;
  for (const MckpItem& it : items) {
    if (it.cost < best) {
      kept.push_back(it);
      best = it.cost;
    }
  }

  if (collinear_eps > 0.0 && kept.size() > 2) {
    const double range = kept.front().cost - kept.back().cost;
    const double tol = collinear_eps * range;
    // Grow each chord from the last kept point (the anchor) as far as
    // EVERY interior point stays within tol of it — checking against the
    // final chord, not each point's immediate successor, is what makes
    // the documented bound hold: a dropped point is always within tol of
    // the segment between its two surviving neighbours (greedy
    // next-point tests let error compound on smooth convex curves).
    const auto chord_ok = [&](std::size_t anchor, std::size_t end) {
      const MckpItem& a = kept[anchor];
      const MckpItem& c = kept[end];
      for (std::size_t j = anchor + 1; j < end; ++j) {
        const double t = static_cast<double>(kept[j].size - a.size) /
                         static_cast<double>(c.size - a.size);
        const double interp = a.cost + t * (c.cost - a.cost);
        if (std::abs(interp - kept[j].cost) > tol) return false;
      }
      return true;
    };
    std::vector<MckpItem> thin;
    thin.reserve(kept.size());
    thin.push_back(kept.front());
    std::size_t anchor = 0;
    for (std::size_t i = 2; i < kept.size(); ++i) {
      if (!chord_ok(anchor, i)) {
        anchor = i - 1;
        thin.push_back(kept[anchor]);
      }
    }
    thin.push_back(kept.back());
    kept = std::move(thin);
  }

  items = std::move(kept);
  return before - items.size();
}

}  // namespace cms::opt
