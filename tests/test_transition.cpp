// Tests for the Section 7 transition-overhead scheme.
#include <gtest/gtest.h>

#include <cmath>

#include "core/common_release_alpha.hpp"
#include "core/common_release_alpha0.hpp"
#include "core/reference.hpp"
#include "core/transition.hpp"
#include "sched/validate.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace sdem {
namespace {

using test::expect_near_rel;
using test::local_counter;
using test::make_cfg;
using test::task;

SystemConfig with_overheads(double alpha, double alpha_m, double xi,
                            double xi_m, double s_up = 1900.0) {
  auto cfg = make_cfg(alpha, alpha_m, s_up);
  cfg.core.xi = xi;
  cfg.memory.xi_m = xi_m;
  return cfg;
}

TEST(Transition, ZeroOverheadReducesToSection4) {
  // With xi == xi_m == 0 the Section 7 scheme must match Section 4 energies.
  for (double alpha : {0.0, 0.31}) {
    const auto cfg = with_overheads(alpha, 4.0, 0.0, 0.0);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const TaskSet ts = make_common_release(1 + seed % 6, 0.0, seed * 3);
      const auto t7 = solve_common_release_transition(ts, cfg);
      const auto s4 = alpha > 0.0 ? solve_common_release_alpha(ts, cfg)
                                  : solve_common_release_alpha0(ts, cfg);
      ASSERT_TRUE(t7.feasible && s4.feasible) << "seed " << seed;
      expect_near_rel(s4.energy, t7.energy, 1e-6, "Section 7 vs 4");
    }
  }
}

TEST(Transition, MatchesDenseReference) {
  for (double xi_m : {0.005, 0.040}) {
    for (double xi : {0.0, 0.002, 0.020}) {
      const auto cfg = with_overheads(0.31, 4.0, xi, xi_m);
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const TaskSet ts = make_common_release(1 + seed % 5, 0.0, seed * 7);
        const auto t7 = solve_common_release_transition(ts, cfg);
        ASSERT_TRUE(t7.feasible);
        const double ref = reference_common_release_transition(ts, cfg);
        expect_near_rel(ref, t7.energy, 1e-5, "vs dense reference");
      }
    }
  }
}

TEST(Transition, LargeBreakEvenSuppressesMemorySleep) {
  // Table 3, last row: when the achievable sleep is below both break-even
  // times, the memory stays awake (Delta = 0) and tasks run at s_c.
  TaskSet ts;
  ts.add(task(0, 0.0, 0.100, 60.0));  // fills most of the interval at s_m
  // At s_m ~ 849 MHz the task runs ~70 ms of the 100 ms region: the
  // potential sleep (~30 ms) is below xi_m = 80 ms.
  const auto cfg = with_overheads(0.31, 4.0, 0.0, 0.080, 0.0);
  const auto res = solve_common_release_transition(ts, cfg);
  ASSERT_TRUE(res.feasible);
  // Either no sleep at all, or the memory idles: sleep_time counts the gap,
  // but the energy must equal the idle-through alternative.
  const double idle_energy = [&] {
    // Stretch to minimize with an always-on memory: min over run of
    // alpha_m * H + core terms. Evaluate both task candidates.
    const double H = 0.100;
    double run = 0.0, speed = 0.0;
    auto cfg_idle = cfg;
    cfg_idle.memory.xi_m = 1e9;  // sleeping can never pay
    const double c =
        transition_task_cost(ts[0], cfg_idle, H, H, run, speed);
    return c + cfg.memory.alpha_m * H;
  }();
  EXPECT_LE(res.energy, idle_energy + 1e-9);
}

TEST(Transition, SmallBreakEvenRecoversRaceToIdle) {
  // xi_m -> 0: sleeping is free, so the optimum approaches the Section 4
  // result from above.
  TaskSet ts = make_common_release(5, 0.0, 21);
  const auto cfg0 = with_overheads(0.31, 4.0, 0.0, 0.0);
  const auto base = solve_common_release_alpha(ts, cfg0);
  ASSERT_TRUE(base.feasible);
  double prev = 1e18;
  double last_xi_m = 0.0;
  for (double xi_m : {0.050, 0.010, 0.001, 0.0001}) {
    const auto cfg = with_overheads(0.31, 4.0, 0.0, xi_m);
    const auto res = solve_common_release_transition(ts, cfg);
    ASSERT_TRUE(res.feasible);
    EXPECT_LE(res.energy, prev + 1e-12) << "monotone in xi_m";
    prev = res.energy;
    last_xi_m = xi_m;
  }
  // The residual gap is at most the one remaining transition pair
  // alpha_m * xi_m (plus numerical slack), which vanishes with xi_m.
  EXPECT_GE(prev, base.energy - 1e-9);
  EXPECT_LE(prev, base.energy + 4.0 * last_xi_m + 1e-6 * base.energy);
}

TEST(Transition, CoreBreakEvenSwitchesRaceToStretch) {
  // One task, huge core break-even: racing to s_m then idling beats nothing
  // — the core should stretch instead (s_c = s_f). With tiny break-even it
  // races at s_m.
  const Task t = task(0, 0.0, 0.100, 8.0);
  const double H = 0.100;
  auto race_cfg = with_overheads(0.31, 0.0, 0.001, 0.0, 0.0);
  double run = 0.0, speed = 0.0;
  transition_task_cost(t, race_cfg, H, H, run, speed);
  const double s_m = race_cfg.core.critical_speed_raw();
  expect_near_rel(s_m, speed, 1e-9, "races at s_m with cheap transitions");

  auto stretch_cfg = with_overheads(0.31, 0.0, 10.0, 0.0, 0.0);
  transition_task_cost(t, stretch_cfg, H, H, run, speed);
  expect_near_rel(8.0 / 0.100, speed, 1e-9,
                  "stretches at filled speed with huge break-even");
}

TEST(Transition, ConstrainedCriticalSpeedDefinition) {
  // SystemConfig::constrained_critical_speed follows the paper's rule.
  auto cfg = with_overheads(0.31, 0.0, 0.010, 0.0, 0.0);
  const Task roomy = task(0, 0.0, 1.0, 8.0);   // runs 9.4 ms at s_m, slack ok
  const Task tight = task(1, 0.0, 0.012, 8.0); // region too tight for xi
  const double s_m = cfg.core.critical_speed_raw();
  expect_near_rel(s_m, cfg.constrained_critical_speed(roomy, 1.0), 1e-9,
                  "roomy task keeps s_m");
  expect_near_rel(tight.filled_speed(),
                  cfg.constrained_critical_speed(tight, 0.012), 1e-9,
                  "tight task stretches");
}

TEST(Transition, SchedulesAreFeasible) {
  const auto cfg = with_overheads(0.31, 4.0, 0.002, 0.040);
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    const TaskSet ts = make_common_release(1 + seed % 8, 0.0, seed * 31);
    const auto res = solve_common_release_transition(ts, cfg);
    ASSERT_TRUE(res.feasible) << "seed " << seed;
    const auto v = validate_schedule(res.schedule, ts, cfg);
    EXPECT_TRUE(v.ok) << v.error << " seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Certification of the closed-form piece sweep.

class TransitionSweep : public ::testing::TestWithParam<double> {};

TEST_P(TransitionSweep, MatchesDenseReferenceAcrossOverheads) {
  // Every piece is a T + b + C T^(1-lambda); alpha = alpha_m = 0 makes a = 0
  // on every piece (E decreasing, optimum at the piece's upper edge), and the
  // idle-tail regions T > H - xi_m (and T > H - xi) drop the memory (core)
  // term from a, so both a > 0 and a <= 0 pieces are swept.
  const double lambda = GetParam();
  for (double alpha : {0.0, 0.31}) {
    for (double alpha_m : {0.0, 4.0}) {
      for (double xi : {0.0, 0.002, 0.02}) {
        for (double xi_m : {0.005, 0.04}) {
          auto cfg = with_overheads(alpha, alpha_m, xi, xi_m);
          cfg.core.lambda = lambda;
          for (std::uint64_t seed = 1; seed <= 2; ++seed) {
            const int n = 1 + static_cast<int>(seed * 5 + xi_m * 1e3) % 8;
            const TaskSet ts = make_common_release(n, 0.0, seed * 13 + n);
            const auto res = solve_common_release_transition(ts, cfg);
            ASSERT_TRUE(res.feasible);
            const double ref =
                reference_common_release_transition(ts, cfg, 20000);
            // Never worse than the grid; the grid is within its resolution.
            EXPECT_LE(res.energy, ref * (1.0 + 1e-9))
                << "lambda " << lambda << " alpha " << alpha << " alpha_m "
                << alpha_m << " xi " << xi << " xi_m " << xi_m;
            expect_near_rel(ref, res.energy, 1e-6, "vs dense reference");
            const auto v = validate_schedule(res.schedule, ts, cfg);
            EXPECT_TRUE(v.ok) << v.error;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Lambda, TransitionSweep,
                         ::testing::Values(2.0, 2.5, 3.0));

TEST(Transition, BoundaryTightTaskEvaluatesAtTheHorizon) {
  // w / d = s_up (1 + 2e-16): admitted by the 1e-12 slack, yet
  // t_min = w / s_up lies past H, so there is no piece to sweep and the
  // solver must still evaluate E(H).
  auto cfg = with_overheads(0.0, 7.139075066086153, 0.0, 0.040, 2600.0);
  cfg.core.lambda = 2.5;
  TaskSet ts;
  ts.add(task(0, 0.0, 0.051758684394049494, 134.5725794245287));
  const double H = ts[0].deadline;
  ASSERT_GT(ts[0].work / cfg.core.s_up, H);
  const auto res = solve_common_release_transition(ts, cfg);
  ASSERT_TRUE(res.feasible);
  double run = 0.0, speed = 0.0;
  const double task_cost = transition_task_cost(ts[0], cfg, H, H, run, speed);
  EXPECT_DOUBLE_EQ(cfg.memory.alpha_m * H + task_cost, res.energy);
  EXPECT_EQ(0.0, res.sleep_time);
  ASSERT_EQ(1u, res.schedule.size());
  EXPECT_EQ(H, res.schedule.segments()[0].end);
}

TEST(Transition, SweepWorkIsLinearInPieces) {
  // At most three candidates per piece (lo, hi, stationary point) plus one
  // direct evaluation at the winner.
  const auto cfg = with_overheads(0.31, 4.0, 0.002, 0.040);
  const TaskSet ts = make_common_release(256, 0.0, 7);
  const std::uint64_t probes0 = local_counter("transition/probes");
  const std::uint64_t pieces0 = local_counter("transition/pieces");
  const std::uint64_t evals0 = local_counter("transition/task_evals_live");
  ASSERT_TRUE(solve_common_release_transition(ts, cfg).feasible);
  const std::uint64_t probes = local_counter("transition/probes") - probes0;
  const std::uint64_t pieces = local_counter("transition/pieces") - pieces0;
  const std::uint64_t evals =
      local_counter("transition/task_evals_live") - evals0;
  EXPECT_GT(pieces, 0u);
  EXPECT_LE(probes, 3 * pieces + 1);
  EXPECT_LE(evals, 2u * ts.size());
}

}  // namespace
}  // namespace sdem
