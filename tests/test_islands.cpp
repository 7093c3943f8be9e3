// Tests for the voltage-island extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/common_release_alpha.hpp"
#include "core/islands.hpp"
#include "sched/validate.hpp"
#include "support/numeric.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace sdem {
namespace {

using test::expect_near_rel;
using test::make_cfg;
using test::task;

std::vector<int> singleton_assignment(std::size_t n) {
  std::vector<int> a(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = static_cast<int>(i);
  return a;
}

TEST(Islands, SingletonIslandsRecoverSection42) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskSet ts = make_common_release(1 + seed % 6, 0.0, seed * 3);
    const auto isl = solve_common_release_islands(
        ts, cfg, singleton_assignment(ts.size()));
    const auto ref = solve_common_release_alpha(ts, cfg);
    ASSERT_TRUE(isl.feasible && ref.feasible) << "seed " << seed;
    expect_near_rel(ref.energy, isl.energy, 1e-6, "singletons == Section 4.2");
  }
}

// The islands objective rebuilt from the model: the memory is awake until
// T and each island runs at the least speed that finishes its longest task
// by T and every member by its deadline, clamped to [s_m, s_up].
double islands_energy(const TaskSet& ts, const SystemConfig& cfg,
                      const std::vector<int>& assignment, double T) {
  const int k = *std::max_element(assignment.begin(), assignment.end()) + 1;
  std::vector<double> total(k, 0.0), longest(k, 0.0), least_speed(k, 0.0);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    const int j = assignment[i];
    total[j] += ts[i].work;
    longest[j] = std::max(longest[j], ts[i].work);
    least_speed[j] = std::max(least_speed[j], ts[i].filled_speed());
  }
  double e = cfg.memory.alpha_m * T;
  for (int j = 0; j < k; ++j) {
    if (total[j] <= 0.0) continue;
    const double sigma =
        std::min(std::max(cfg.core.critical_speed_raw(),
                          std::max(longest[j] / T, least_speed[j])),
                 cfg.core.max_speed());
    if (longest[j] / sigma > T * (1.0 + 1e-9)) {
      return std::numeric_limits<double>::infinity();
    }
    e += cfg.core.exec_energy(total[j], sigma);
  }
  return e;
}

TEST(Islands, PieceStationaryPointMatchesDenseScan) {
  // Each piece's closed-form stationary point against a dense scan of the
  // whole objective: never above it by more than rounding, and within 1e-9.
  Xoshiro256 rng(2024);
  for (const double alpha : {0.0, 0.31}) {
    for (const double alpha_m : {0.0, 4.0}) {
      for (const double lambda : {2.0, 3.0}) {
        const auto cfg = make_cfg(alpha, alpha_m, 1900.0, lambda);
        for (int rep = 0; rep < 6; ++rep) {
          const int n = static_cast<int>(rng.uniform_int(4, 24));
          const TaskSet ts = make_common_release(n, 0.0, rng());
          const int k = static_cast<int>(rng.uniform_int(1, n));
          std::vector<int> random(ts.size());
          for (int& a : random) a = static_cast<int>(rng.uniform_int(0, k - 1));
          for (const auto& assignment :
               {assign_islands_similar_speed(ts, k), random}) {
            const auto res = solve_common_release_islands(ts, cfg, assignment);
            ASSERT_TRUE(res.feasible);
            double t_min = 0.0, horizon = 0.0;
            for (const Task& t : ts.tasks()) {
              t_min = std::max(t_min, t.work / cfg.core.max_speed());
              horizon = std::max(horizon, t.deadline);
            }
            const auto f = [&](double T) {
              return islands_energy(ts, cfg, assignment, T);
            };
            const double scan = f(grid_refine_min(f, t_min, horizon));
            EXPECT_LE(res.energy, scan * (1.0 + 1e-12))
                << "n " << n << " islands " << k << " alpha " << alpha
                << " alpha_m " << alpha_m << " lambda " << lambda;
            expect_near_rel(scan, res.energy, 1e-9, "closed form vs scan");
          }
        }
      }
    }
  }
}

TEST(Islands, EnergyIgnoresIslandLabels) {
  // The energy is a function of the partition, not of how its islands are
  // numbered. The islands experiment's setup: per-core rails against 16
  // similar-speed islands of one task each, and a round-robin partition
  // against a copy with its labels reversed, bit for bit.
  auto cfg = SystemConfig::paper_default();
  cfg.core.s_min = 0.0;
  cfg.memory.xi_m = 0.0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const TaskSet ts = make_common_release(16, 0.0, seed * 397);
    const auto per_core = solve_common_release_islands(
        ts, cfg, singleton_assignment(ts.size()));
    const auto similar = solve_common_release_islands(
        ts, cfg, assign_islands_similar_speed(ts, 16));
    ASSERT_TRUE(per_core.feasible && similar.feasible) << "seed " << seed;
    EXPECT_EQ(per_core.energy, similar.energy) << "seed " << seed;

    std::vector<int> robin(ts.size()), reversed(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) {
      robin[i] = static_cast<int>(i % 4);
      reversed[i] = 3 - robin[i];
    }
    const auto a = solve_common_release_islands(ts, cfg, robin);
    const auto b = solve_common_release_islands(ts, cfg, reversed);
    ASSERT_TRUE(a.feasible && b.feasible) << "seed " << seed;
    EXPECT_EQ(a.energy, b.energy) << "seed " << seed;
  }
}

TEST(Islands, SharedRailNeverBeatsIndividualRails) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskSet ts = make_common_release(8, 0.0, seed * 13);
    const auto fine = solve_common_release_islands(
        ts, cfg, singleton_assignment(ts.size()));
    const auto coarse = solve_common_release_islands(
        ts, cfg, std::vector<int>(ts.size(), 0));
    ASSERT_TRUE(fine.feasible && coarse.feasible);
    EXPECT_GE(coarse.energy, fine.energy - 1e-9) << "seed " << seed;
  }
}

TEST(Islands, OneIslandClosedForm) {
  // Single island, memory free, loose deadlines: the rail runs at s_m and
  // the energy is (beta s_m^3 + alpha) * W / s_m.
  auto cfg = make_cfg(0.31, 0.0, 0.0);
  TaskSet ts;
  ts.add(task(0, 0.0, 10.0, 2.0));
  ts.add(task(1, 0.0, 10.0, 5.0));
  const auto res =
      solve_common_release_islands(ts, cfg, std::vector<int>{0, 0});
  ASSERT_TRUE(res.feasible);
  const double s_m = cfg.core.critical_speed_raw();
  expect_near_rel(cfg.core.exec_energy(7.0, s_m), res.energy, 1e-9,
                  "island at s_m");
  for (const auto& seg : res.schedule.segments()) {
    expect_near_rel(s_m, seg.speed, 1e-9, "shared rail speed");
  }
}

TEST(Islands, MembersShareOneSpeed) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  const TaskSet ts = make_common_release(6, 0.0, 77);
  const auto res = solve_common_release_islands(
      ts, cfg, std::vector<int>{0, 0, 0, 1, 1, 1});
  ASSERT_TRUE(res.feasible);
  std::map<int, double> island_speed;  // first core of each island
  const auto& segs = res.schedule.segments();
  for (std::size_t i = 1; i < 3; ++i) {
    expect_near_rel(segs[0].speed, segs[i].speed, 1e-12, "island 0 shared");
  }
  for (std::size_t i = 4; i < 6; ++i) {
    expect_near_rel(segs[3].speed, segs[i].speed, 1e-12, "island 1 shared");
  }
}

TEST(Islands, SchedulesAreFeasible) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const TaskSet ts = make_common_release(9, 0.0, seed * 5);
    const auto assignment = assign_islands_similar_speed(ts, 3);
    const auto res = solve_common_release_islands(ts, cfg, assignment);
    ASSERT_TRUE(res.feasible) << "seed " << seed;
    const auto v = validate_schedule(res.schedule, ts, cfg);
    EXPECT_TRUE(v.ok) << v.error << " seed " << seed;
  }
}

TEST(Islands, SimilarSpeedAssignmentBeatsAdversarial) {
  // Pairing steep with shallow tasks wastes the shared rail; the heuristic
  // should beat the worst interleaved assignment on average.
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  double good = 0.0, bad = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    TaskSet ts;
    // Four steep (tight) and four shallow (loose) tasks.
    for (int i = 0; i < 4; ++i) ts.add(task(i, 0.0, 0.004, 4.0));
    for (int i = 4; i < 8; ++i) ts.add(task(i, 0.0, 0.500, 2.0 + 0.1 * i));
    const auto similar = assign_islands_similar_speed(ts, 2);
    const std::vector<int> interleaved{0, 1, 0, 1, 0, 1, 0, 1};
    const auto g = solve_common_release_islands(ts, cfg, similar);
    const auto b = solve_common_release_islands(ts, cfg, interleaved);
    ASSERT_TRUE(g.feasible && b.feasible);
    good += g.energy;
    bad += b.energy;
  }
  EXPECT_LT(good, bad);
}

TEST(Islands, AssignmentHelperShape) {
  const TaskSet ts = make_common_release(10, 0.0, 3);
  const auto a = assign_islands_similar_speed(ts, 3);
  ASSERT_EQ(a.size(), 10u);
  for (int v : a) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 3);
  }
}

TEST(Islands, RejectsBadInput) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 1.0));
  EXPECT_FALSE(solve_common_release_islands(ts, cfg, {}).feasible);
  EXPECT_FALSE(solve_common_release_islands(ts, cfg, {-1}).feasible);
}

}  // namespace
}  // namespace sdem
