// Tests for the discrete-DVFS-aware common-release solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "core/common_release_alpha.hpp"
#include "core/discrete_solver.hpp"
#include "core/discretize.hpp"
#include "sched/energy.hpp"
#include "sched/validate.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace sdem {
namespace {

using test::expect_near_rel;
using test::local_counter;
using test::make_cfg;
using test::task;

/// E(T) = alpha_m T + sum_k f_disc(min(T, d_k - release)), the objective
/// the solver minimizes, evaluated task by task.
double discrete_objective(const TaskSet& ts, const SystemConfig& cfg,
                          const FrequencyLadder& ladder, double T) {
  double e = cfg.memory.alpha_m * T;
  for (const auto& t : ts.tasks()) {
    e += discrete_window_energy(t, cfg.core, ladder,
                                std::min(T, t.deadline - t.release));
  }
  return e;
}

TEST(DiscreteWindow, RaceBranchUsesCheapestLevel) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  const auto ladder = FrequencyLadder::a57_opps();
  const Task t = task(0, 0.0, 1.0, 3.0);  // very loose window
  double hi = 0, lo = 0, t_hi = 0;
  const double e = discrete_window_energy(t, cfg.core, ladder, 1.0, &hi, &lo,
                                          &t_hi);
  EXPECT_EQ(hi, lo);
  // Cheapest level: the one with the lowest energy-per-cycle (closest to
  // s_m ~ 849 in cost — that's 1000 on the A57 ladder; verify by direct
  // comparison).
  double best = 1e18, best_level = 0;
  for (double s : ladder.levels()) {
    const double epc = cfg.core.exec_energy(3.0, s);
    if (epc < best) {
      best = epc;
      best_level = s;
    }
  }
  EXPECT_EQ(hi, best_level);
  expect_near_rel(best, e, 1e-12, "race energy");
}

TEST(DiscreteWindow, TightBranchFillsWithAdjacentPair) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  const auto ladder = FrequencyLadder::a57_opps();
  const Task t = task(0, 0.0, 1.0, 3.0);
  const double window = 3.0 / 1100.0;  // fill speed 1100: between 1000/1200
  double hi = 0, lo = 0, t_hi = 0;
  const double e =
      discrete_window_energy(t, cfg.core, ladder, window, &hi, &lo, &t_hi);
  EXPECT_EQ(lo, 1000.0);
  EXPECT_EQ(hi, 1200.0);
  // Work conservation: hi*t_hi + lo*(window-t_hi) == 3.0.
  expect_near_rel(3.0, hi * t_hi + lo * (window - t_hi), 1e-9, "work");
  EXPECT_GT(e, 0.0);
}

TEST(DiscreteWindow, InfeasibleBeyondTopLevel) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  const auto ladder = FrequencyLadder::a57_opps();
  const Task t = task(0, 0.0, 1.0, 3.0);
  EXPECT_TRUE(std::isinf(
      discrete_window_energy(t, cfg.core, ladder, 3.0 / 2500.0)));
}

TEST(DiscreteSolver, BracketsContinuousAndPostHoc) {
  // continuous optimum <= discrete-aware <= post-hoc discretization.
  auto cfg = make_cfg(0.31, 4.0, 1900.0);
  cfg.memory.xi_m = 0.0;
  for (int levels : {3, 6, 12}) {
    const auto ladder = FrequencyLadder::uniform(levels, 700.0, 1900.0);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const TaskSet ts = make_common_release(8, 0.0, seed * 97);
      const auto cont = solve_common_release_alpha(ts, cfg);
      const auto aware = solve_common_release_discrete(ts, cfg, ladder);
      ASSERT_TRUE(cont.feasible && aware.feasible);
      const auto posthoc = discretize_schedule(cont.schedule, ladder);
      ASSERT_TRUE(posthoc.feasible);
      const double e_post = system_energy(posthoc.schedule, cfg);
      EXPECT_GE(aware.energy, cont.energy - 1e-9) << levels << " levels";
      EXPECT_LE(aware.energy, e_post + 1e-9) << levels << " levels";
      const auto v = validate_schedule(aware.schedule, ts, cfg);
      EXPECT_TRUE(v.ok) << v.error;
      // Analytic energy equals the schedule's accounted energy.
      expect_near_rel(aware.energy, system_energy(aware.schedule, cfg), 1e-9,
                      "accounting");
    }
  }
}

TEST(DiscreteSolver, DenseLadderConvergesToContinuous) {
  auto cfg = make_cfg(0.31, 4.0, 1900.0);
  cfg.memory.xi_m = 0.0;
  const TaskSet ts = make_common_release(6, 0.0, 5);
  const auto cont = solve_common_release_alpha(ts, cfg);
  const auto aware = solve_common_release_discrete(
      ts, cfg, FrequencyLadder::uniform(257, 700.0, 1900.0));
  ASSERT_TRUE(cont.feasible && aware.feasible);
  expect_near_rel(cont.energy, aware.energy, 1e-3, "dense ladder");
}

TEST(DiscreteSolver, MatchesBruteForceTinyInstance) {
  // One task, two levels: enumerate the memory end T on a dense grid with
  // the same discrete window cost.
  auto cfg = make_cfg(0.31, 4.0, 1900.0);
  cfg.memory.xi_m = 0.0;
  const FrequencyLadder ladder({800.0, 1600.0});
  TaskSet ts;
  ts.add(task(0, 0.0, 0.010, 6.0));
  const auto res = solve_common_release_discrete(ts, cfg, ladder);
  ASSERT_TRUE(res.feasible);
  double best = 1e18;
  for (int i = 1; i <= 400000; ++i) {
    const double T = 0.010 * i / 400000.0;
    const double e = cfg.memory.alpha_m * T +
                     discrete_window_energy(ts[0], cfg.core, ladder, T);
    best = std::min(best, e);
  }
  expect_near_rel(best, res.energy, 1e-6, "vs dense T grid");
}

TEST(DiscreteSolver, RejectsOverloaded) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  const FrequencyLadder ladder({700.0, 1000.0});
  TaskSet ts;
  ts.add(task(0, 0.0, 0.001, 3.0));  // needs 3000 MHz
  EXPECT_FALSE(solve_common_release_discrete(ts, cfg, ladder).feasible);
}

TEST(DiscreteSolver, SweepMatchesDenseGrid) {
  // E(T) is piecewise linear, so a dense grid over [t_min, H] can undercut
  // the breakpoint optimum by at most |slope| * step. alpha_m = 0 adds flat
  // pieces (every task racing or capped): ties there go to the horizon.
  auto cfg = make_cfg(0.31, 4.0, 1900.0);
  cfg.memory.xi_m = 0.0;
  constexpr int kGrid = 20000;
  for (int levels : {2, 3, 5, 8, 16, 32}) {
    const auto ladder = FrequencyLadder::uniform(levels, 700.0, 1900.0);
    for (double alpha_m : {4.0, 0.0}) {
      cfg.memory.alpha_m = alpha_m;
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const int n = 1 + static_cast<int>(seed * 7 + levels) % 6;
        const TaskSet ts = make_common_release(n, 0.0, seed * 53 + levels);
        const auto res = solve_common_release_discrete(ts, cfg, ladder);
        ASSERT_TRUE(res.feasible);
        double H = 0.0, t_min = 0.0;
        for (const auto& t : ts.tasks()) {
          H = std::max(H, t.deadline);
          t_min = std::max(t_min, t.work / 1900.0);
        }
        const double step = (H - t_min) / kGrid;
        double grid_min = discrete_objective(ts, cfg, ladder, H);
        for (int i = 0; i < kGrid; ++i) {
          grid_min = std::min(
              grid_min, discrete_objective(ts, cfg, ladder, t_min + i * step));
        }
        const double slope_bound =
            alpha_m + static_cast<double>(n) * cfg.core.power(1900.0);
        const std::string what = std::to_string(levels) + " levels, alpha_m " +
                                 std::to_string(alpha_m) + ", seed " +
                                 std::to_string(seed);
        EXPECT_LE(res.energy, grid_min * (1.0 + 1e-12)) << what;
        EXPECT_GE(res.energy, grid_min - slope_bound * step) << what;
        // The energy is the objective at the chosen T (recovered from the
        // sleep time up to rounding), and a flat tail resolves to the
        // horizon.
        expect_near_rel(
            discrete_objective(ts, cfg, ladder, H - res.sleep_time),
            res.energy, 1e-12, what.c_str());
        if (discrete_objective(ts, cfg, ladder, H) == res.energy) {
          EXPECT_EQ(0.0, res.sleep_time) << what;
        }
      }
    }
  }
}

TEST(DiscreteSolver, BoundaryTightTaskEvaluatesAtTheHorizon) {
  // w / d = s_up (1 + 2e-16) with the ladder topped at s_up: t_min lies past
  // the horizon, so the sweep has no piece and E(H) is the answer.
  auto cfg = make_cfg(0.0, 7.139075066086153, 2600.0, 2.5);
  const FrequencyLadder ladder({1300.0, 2600.0});
  TaskSet ts;
  ts.add(task(0, 0.0, 0.051758684394049494, 134.5725794245287));
  const double H = ts[0].deadline;
  ASSERT_GT(ts[0].work / 2600.0, H);
  const auto res = solve_common_release_discrete(ts, cfg, ladder);
  ASSERT_TRUE(res.feasible);
  EXPECT_EQ(discrete_objective(ts, cfg, ladder, H), res.energy);
  EXPECT_EQ(0.0, res.sleep_time);
}

TEST(DiscreteSolver, SweepEvaluatesOnlyBreakpoints) {
  // One model value per breakpoint plus the direct evaluation of the
  // winner (near-ties would add more; a generic instance has none).
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  const TaskSet ts = make_common_release(256, 0.0, 7);
  const auto ladder = FrequencyLadder::a57_opps();
  const std::uint64_t probes0 = local_counter("discrete/probes");
  const std::uint64_t bps0 = local_counter("discrete/breakpoints");
  ASSERT_TRUE(solve_common_release_discrete(ts, cfg, ladder).feasible);
  const std::uint64_t probes = local_counter("discrete/probes") - probes0;
  const std::uint64_t bps = local_counter("discrete/breakpoints") - bps0;
  EXPECT_GT(bps, 2u);
  EXPECT_LE(probes, bps + 1);
}

}  // namespace
}  // namespace sdem
