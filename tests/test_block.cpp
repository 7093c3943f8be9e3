// Tests for the unified single-block optimizer (core/block.hpp).
#include <gtest/gtest.h>

#include <cmath>

#include "core/block.hpp"
#include "core/reference.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace sdem {
namespace {

using test::expect_near_rel;
using test::make_cfg;
using test::task;

TEST(BlockObjective, WindowEnergyConvexPieces) {
  const auto cfg = make_cfg(0.31, 4.0, 0.0);
  const Task t = task(0, 0.0, 1.0, 3.0);
  // Below w/s_m the task fills the window: energy strictly decreasing.
  const double s_m = cfg.core.critical_speed_raw();
  const double knee = 3.0 / s_m;
  const double e1 = task_window_energy(t, cfg.core, 0.25 * knee);
  const double e2 = task_window_energy(t, cfg.core, 0.5 * knee);
  const double e3 = task_window_energy(t, cfg.core, knee);
  EXPECT_GT(e1, e2);
  EXPECT_GT(e2, e3);
  // Beyond the knee the core races at s_m: energy flat.
  const double e4 = task_window_energy(t, cfg.core, 2.0 * knee);
  expect_near_rel(e3, e4, 1e-9, "flat beyond knee");
}

TEST(BlockObjective, WindowSpeedClamping) {
  const auto cfg = make_cfg(0.31, 4.0, 1000.0);
  const Task t = task(0, 0.0, 1.0, 3.0);
  // Tiny window: fill speed above s_up -> infeasible energy.
  EXPECT_TRUE(std::isinf(task_window_energy(t, cfg.core, 3.0 / 2000.0)));
  // Window matching s_up exactly: feasible.
  EXPECT_TRUE(std::isfinite(task_window_energy(t, cfg.core, 3.0 / 1000.0)));
}

TEST(BlockSolver, SingleTaskAlpha0FillsOrShrinks) {
  // alpha == 0: block objective = alpha_m (e-s) + beta w^3 (e-s)^-2 for one
  // task whose region contains the busy interval.
  const auto cfg = make_cfg(0.0, 4.0, 0.0);
  std::vector<Task> ts{task(0, 0.0, 0.100, 3.0)};
  const auto res = solve_block(ts, cfg);
  ASSERT_TRUE(res.feasible);
  const double t_opt = std::cbrt(2.0 * cfg.core.beta * 27.0 / 4.0);
  expect_near_rel(t_opt, res.e - res.s, 1e-6, "interval length");
}

TEST(BlockSolver, MatchesReferenceAlpha0) {
  const auto cfg = make_cfg(0.0, 4.0, 1900.0);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const TaskSet ts = make_agreeable(2 + seed % 4, seed);
    const auto res = solve_block(ts.sorted_by_deadline().tasks(), cfg);
    ASSERT_TRUE(res.feasible) << "seed " << seed;
    const double ref = reference_block(ts.sorted_by_deadline().tasks(), cfg);
    expect_near_rel(ref, res.energy, 1e-5, "vs 2-D reference");
  }
}

TEST(BlockSolver, MatchesReferenceAlphaNonzero) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const TaskSet ts = make_agreeable(2 + seed % 4, seed * 13);
    const auto res = solve_block(ts.sorted_by_deadline().tasks(), cfg);
    ASSERT_TRUE(res.feasible) << "seed " << seed;
    const double ref = reference_block(ts.sorted_by_deadline().tasks(), cfg);
    expect_near_rel(ref, res.energy, 1e-5, "vs 2-D reference");
  }
}

TEST(BlockSolver, PlacementsRespectWindows) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskSet ts = make_agreeable(5, seed * 7);
    const auto sorted = ts.sorted_by_deadline().tasks();
    const auto res = solve_block(sorted, cfg);
    ASSERT_TRUE(res.feasible);
    for (std::size_t k = 0; k < sorted.size(); ++k) {
      const auto& p = res.placements[k];
      EXPECT_GE(p.start, sorted[k].release - 1e-9);
      EXPECT_LE(p.start + p.len, sorted[k].deadline + 1e-9);
      EXPECT_GE(p.start, res.s - 1e-9);
      EXPECT_LE(p.start + p.len, res.e + 1e-9);
      expect_near_rel(sorted[k].work, p.len * p.speed, 1e-9, "work done");
    }
  }
}

TEST(BlockSolver, EnergyAtMatchesPlacementSum) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  const TaskSet ts = make_agreeable(4, 99);
  const auto sorted = ts.sorted_by_deadline().tasks();
  const auto res = solve_block(sorted, cfg);
  ASSERT_TRUE(res.feasible);
  double manual = cfg.memory.alpha_m * (res.e - res.s);
  for (const auto& p : res.placements) {
    if (p.len > 0.0) manual += cfg.core.exec_energy(p.speed * p.len, p.speed);
  }
  expect_near_rel(res.energy, manual, 1e-9, "objective decomposition");
}

TEST(BlockSolver, DisjointRegionsForcedTogetherCostMore) {
  // Two tasks with a gap between their regions: one busy interval must span
  // the hole, paying memory static power for dead time.
  const auto cfg = make_cfg(0.0, 4.0, 0.0);
  std::vector<Task> together{task(0, 0.0, 0.010, 2.0), task(1, 0.050, 0.060, 2.0)};
  const auto one_block = solve_block(together, cfg);
  ASSERT_TRUE(one_block.feasible);
  const auto a = solve_block({together[0]}, cfg);
  const auto b = solve_block({together[1]}, cfg);
  EXPECT_GT(one_block.energy, a.energy + b.energy - 1e-12);
  // The forced block spans the hole.
  EXPECT_LE(one_block.s, 0.010 + 1e-9);
  EXPECT_GE(one_block.e, 0.050 - 1e-9);
}

TEST(BlockSolver, Lemma3StationarityAtInteriorOptimum) {
  // Lemma 3's first-order condition in s': where the optimum sits strictly
  // between two releases, the tasks released by s' satisfy
  //   sum_{r_k <= s'} (w_k / (d_k - s'))^lambda = alpha_m / (beta (lambda-1)).
  const auto cfg = make_cfg(0.0, 4.0, 0.0);
  const std::vector<Task> ts{task(0, 0.0, 0.100, 170.0),
                             task(1, 0.020, 0.120, 150.0)};
  const auto res = solve_block(ts, cfg);
  ASSERT_TRUE(res.feasible);
  ASSERT_GT(res.s, ts[0].release + 1e-3);
  ASSERT_LT(res.s, ts[1].release - 1e-3);
  double lhs = 0.0;
  for (const Task& t : ts) {
    if (t.release <= res.s) {
      lhs += std::pow(t.work / (t.deadline - res.s), cfg.core.lambda);
    }
  }
  expect_near_rel(
      cfg.memory.alpha_m / (cfg.core.beta * (cfg.core.lambda - 1.0)), lhs,
      1e-6, "Lemma 3 stationarity in s'");
}

}  // namespace
}  // namespace sdem
