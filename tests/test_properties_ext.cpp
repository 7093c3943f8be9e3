// Extended parameterized property sweeps covering the extension modules
// (islands, discretization, online policies) and cross-cutting accounting
// invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "baseline/mbkp.hpp"
#include "baseline/simple_policies.hpp"
#include "core/common_release_alpha.hpp"
#include "core/discretize.hpp"
#include "core/islands.hpp"
#include "core/online_sdem.hpp"
#include "sched/energy.hpp"
#include "sched/trace_io.hpp"
#include "sched/validate.hpp"
#include "sim/metrics.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace sdem {
namespace {

using test::expect_near_rel;
using test::make_cfg;

// ---------------------------------------------------------------------------
// Islands: for every island count, coarser rails never help, and schedules
// stay feasible.

class IslandGranularity : public ::testing::TestWithParam<int> {};

TEST_P(IslandGranularity, MonotoneAndFeasible) {
  const int islands = GetParam();
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const TaskSet ts = make_common_release(12, 0.0, seed * 131);
    std::vector<int> fine(ts.size());
    for (std::size_t i = 0; i < ts.size(); ++i) fine[i] = static_cast<int>(i);
    const auto best = solve_common_release_islands(ts, cfg, fine);
    const auto grouped = solve_common_release_islands(
        ts, cfg, assign_islands_similar_speed(ts, islands));
    ASSERT_TRUE(best.feasible && grouped.feasible);
    EXPECT_GE(grouped.energy, best.energy - 1e-9);
    const auto v = validate_schedule(grouped.schedule, ts, cfg);
    EXPECT_TRUE(v.ok) << v.error;
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, IslandGranularity,
                         ::testing::Values(1, 2, 3, 4, 6, 12));

// ---------------------------------------------------------------------------
// Discretization: penalty non-negative, feasibility preserved, monotone
// (denser uniform ladders never cost more), across alpha configurations.

using DiscParam = std::tuple<double, int>;  // alpha, levels

class DiscretizationPenalty : public ::testing::TestWithParam<DiscParam> {};

TEST_P(DiscretizationPenalty, NonNegativeAndFeasible) {
  const auto [alpha, levels] = GetParam();
  const auto cfg = make_cfg(alpha, 4.0, 1900.0);
  const auto ladder = FrequencyLadder::uniform(levels, 700.0, 1900.0);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const TaskSet ts = make_common_release(8, 0.0, seed * 71);
    const auto cont = solve_common_release_alpha(ts, cfg);
    ASSERT_TRUE(cont.feasible);
    const auto d = discretize_schedule(cont.schedule, ladder);
    ASSERT_TRUE(d.feasible);
    const auto v = validate_schedule(d.schedule, ts, cfg);
    EXPECT_TRUE(v.ok) << v.error;
    EXPECT_GE(system_energy(d.schedule, cfg),
              system_energy(cont.schedule, cfg) - 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DiscretizationPenalty,
    ::testing::Combine(::testing::Values(0.0, 0.31),
                       ::testing::Values(2, 4, 8, 32)));

// ---------------------------------------------------------------------------
// Online policy grid: every policy stays feasible across the Table 4 grid
// corners; SDEM-ON never loses to MBKP.

using OnlineParam = std::tuple<int, double>;  // x(ms), alpha_m

class OnlineGrid : public ::testing::TestWithParam<OnlineParam> {};

TEST_P(OnlineGrid, AllPoliciesFeasibleAndOrdered) {
  const auto [x, alpha_m] = GetParam();
  auto cfg = SystemConfig::paper_default();
  cfg.memory.alpha_m = alpha_m;
  SyntheticParams p;
  p.num_tasks = 60;
  p.max_interarrival = x / 1000.0;
  const TaskSet ts = make_synthetic(p, 1000 + x);

  const auto cmp = run_comparison(ts, cfg);
  EXPECT_EQ(cmp.sdem.deadline_misses, 0);
  EXPECT_EQ(cmp.mbkp.deadline_misses, 0);
  EXPECT_LE(cmp.sdem.energy.system_total(),
            cmp.mbkp.energy.system_total() * 1.001);
  EXPECT_LE(cmp.mbkps.energy.system_total(),
            cmp.mbkp.energy.system_total() + 1e-9);

  RaceToIdlePolicy race;
  const auto sim = simulate(ts, cfg, race);
  EXPECT_EQ(sim.deadline_misses, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OnlineGrid,
    ::testing::Combine(::testing::Values(100, 400, 800),
                       ::testing::Values(1.0, 4.0, 8.0)));

// ---------------------------------------------------------------------------
// Cross-cutting invariants.

TEST(AccountingFuzz, CsvRoundTripPreservesEnergy) {
  // Serialize -> parse -> account must be bit-identical on random
  // simulated schedules.
  auto cfg = SystemConfig::paper_default();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SyntheticParams p;
    p.num_tasks = 50;
    p.max_interarrival = 0.200;
    const TaskSet ts = make_synthetic(p, seed * 5);
    SdemOnPolicy pol;
    const auto sim = simulate(ts, cfg, pol);
    const Schedule back = schedule_from_csv(schedule_to_csv(sim.schedule));
    EnergyOptions opts;
    opts.horizon_lo = sim.horizon_lo;
    opts.horizon_hi = sim.horizon_hi;
    EXPECT_EQ(compute_energy(sim.schedule, cfg, opts).system_total(),
              compute_energy(back, cfg, opts).system_total());
  }
}

TEST(AccountingFuzz, DisciplineOrdering) {
  // For any schedule and config: optimal <= always and optimal <= never.
  auto cfg = SystemConfig::paper_default();
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SyntheticParams p;
    p.num_tasks = 40;
    p.max_interarrival = 0.150;
    const TaskSet ts = make_synthetic(p, seed * 17);
    MbkpPolicy pol;
    const auto sim = simulate(ts, cfg, pol);
    auto energy = [&](SleepDiscipline d) {
      EnergyOptions o;
      o.memory_gaps = d;
      o.horizon_lo = sim.horizon_lo;
      o.horizon_hi = sim.horizon_hi;
      return compute_energy(sim.schedule, cfg, o).memory_total();
    };
    const double opt = energy(SleepDiscipline::kOptimal);
    EXPECT_LE(opt, energy(SleepDiscipline::kAlways) + 1e-9);
    EXPECT_LE(opt, energy(SleepDiscipline::kNever) + 1e-9);
  }
}

TEST(FailureInjection, ValidatorCatchesCorruptedSchedules) {
  // Corrupt a valid schedule in several ways; the validator must flag all.
  auto cfg = make_cfg(0.31, 4.0, 1900.0);
  const TaskSet ts = make_common_release(5, 0.0, 9);
  const auto res = solve_common_release_alpha(ts, cfg);
  ASSERT_TRUE(res.feasible);
  ASSERT_TRUE(validate_schedule(res.schedule, ts, cfg).ok);

  {
    Schedule bad = res.schedule;  // drop a segment: work incomplete
    Schedule dropped;
    for (std::size_t i = 1; i < bad.segments().size(); ++i) {
      dropped.add(bad.segments()[i]);
    }
    EXPECT_FALSE(validate_schedule(dropped, ts, cfg).ok);
  }
  {
    Schedule bad;  // inflate a speed beyond s_up
    for (auto seg : res.schedule.segments()) {
      seg.speed = 3000.0;
      bad.add(seg);
    }
    EXPECT_FALSE(validate_schedule(bad, ts, cfg).ok);
  }
  {
    Schedule bad;  // shift everything past the deadlines
    for (auto seg : res.schedule.segments()) {
      seg.start += 1.0;
      seg.end += 1.0;
      bad.add(seg);
    }
    EXPECT_FALSE(validate_schedule(bad, ts, cfg).ok);
  }
}

}  // namespace
}  // namespace sdem
