// Tests for the DRAM power-down/self-refresh ladder and its paper-model
// abstraction.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "mem/dram.hpp"
#include "sched/energy.hpp"
#include "test_util.hpp"

namespace sdem {
namespace {

using test::make_cfg;

Schedule gap_schedule(double gap) {
  Schedule s;
  s.add(Segment{0, 0, 0.0, 1.0, 1000.0});
  s.add(Segment{1, 0, 1.0 + gap, 2.0 + gap, 1000.0});
  return s;
}

/// The memory charge of `sched` over [lo, hi] on `memory` under `disc`.
EnergyBreakdown charge(const Schedule& sched, const MemoryPower& memory,
                       double lo, double hi,
                       SleepDiscipline disc = SleepDiscipline::kOptimal) {
  EnergyOptions opts;
  opts.memory_gaps = disc;
  opts.horizon_lo = lo;
  opts.horizon_hi = hi;
  EnergyBreakdown e;
  add_memory_energy(sched.memory_busy(), memory, opts, e);
  return e;
}

/// "Immediate power-down": every gap in the shallow state.
MemoryPower powerdown_only(const DramPowerParams& p) {
  MemoryPower m = p.memory();
  m.ladder = m.ladder.prefix(1);
  return m;
}

TEST(Dram, NoPowerDownBurnsActiveEverywhere) {
  const auto p = DramPowerParams::paper_50nm();
  const auto r = charge(gap_schedule(1.0), p.memory(), 0.0, 3.0,
                        SleepDiscipline::kNever);
  EXPECT_NEAR(r.memory_total(), p.p_active * 3.0, 1e-9);
  EXPECT_EQ(r.memory_states[0].cycles, 0.0);
  EXPECT_EQ(r.memory_states[1].cycles, 0.0);
}

TEST(Dram, ImmediatePowerDownUsesShallowState) {
  const auto p = DramPowerParams::paper_50nm();
  const auto r = charge(gap_schedule(1.0), powerdown_only(p), 0.0, 3.0,
                        SleepDiscipline::kAlways);
  ASSERT_EQ(r.memory_states.size(), 1u);
  EXPECT_EQ(r.memory_states[0].cycles, 1.0);
  EXPECT_NEAR(r.memory_states[0].residency_energy, p.p_powerdown * 1.0,
              1e-9);
  EXPECT_NEAR(r.memory_transition, p.e_powerdown, 1e-12);
}

TEST(Dram, OraclePrefersSelfRefreshOnLongGaps) {
  const auto p = DramPowerParams::paper_50nm();
  const auto long_gap = charge(gap_schedule(2.0), p.memory(), 0.0, 4.0);
  EXPECT_EQ(long_gap.memory_states[1].cycles, 1.0);
  // Short gap (1 ms): self refresh's pair energy cannot amortize; power-down
  // can (tiny pair energy, fits easily).
  const auto short_gap = charge(gap_schedule(0.001), p.memory(), 0.0, 2.001);
  EXPECT_EQ(short_gap.memory_states[1].cycles, 0.0);
  EXPECT_EQ(short_gap.memory_states[0].cycles, 1.0);
}

TEST(Dram, LatencyGateClampsIllegalChoices) {
  auto p = DramPowerParams::paper_50nm();
  p.t_selfrefresh = 10.0;  // cannot fit any gap here
  const auto r = charge(gap_schedule(2.0), p.memory(), 0.0, 4.0);
  EXPECT_EQ(r.memory_states[1].cycles, 0.0);
  EXPECT_EQ(r.memory_states[0].cycles, 1.0);  // power-down still fits
}

TEST(Dram, OracleNeverWorseThanOtherPolicies) {
  const auto p = DramPowerParams::paper_50nm();
  for (double gap : {1e-7, 1e-4, 0.003, 0.040, 0.5, 5.0}) {
    const auto sched = gap_schedule(gap);
    const double hi = 2.0 + gap;
    const double e_o = charge(sched, p.memory(), 0.0, hi).memory_total();
    EXPECT_LE(e_o, charge(sched, p.memory(), 0.0, hi, SleepDiscipline::kNever)
                           .memory_total() +
                       1e-12);
    EXPECT_LE(e_o, charge(sched, powerdown_only(p), 0.0, hi,
                          SleepDiscipline::kAlways)
                           .memory_total() +
                       1e-12);
  }
}

// Per gap, the clairvoyant charge is the cheapest of idling awake and the
// states whose enter+exit latency fits: min over {awake, power-down,
// self-refresh} of power * gap + pair energy. The sweep straddles both
// latencies, both break-even times and the power-down/self-refresh
// crossover, on the paper's parameters and on a device whose self-refresh
// latency outlasts the crossover (so the latency, not the break-even,
// decides).
TEST(Dram, EveryGapPaysTheCheapestFittingState) {
  auto slow_exit = DramPowerParams::paper_50nm();
  slow_exit.t_selfrefresh = 0.2;
  for (const DramPowerParams& p :
       {DramPowerParams::paper_50nm(), slow_exit}) {
    const MemoryPower memory = p.memory();
    ASSERT_EQ(memory.ladder.validate(memory.alpha_m), "");
    const double crossover =
        (p.e_selfrefresh - p.e_powerdown) / (p.p_powerdown - p.p_selfrefresh);
    std::vector<double> gaps;
    for (double edge : {p.t_powerdown, p.t_selfrefresh,
                        memory.ladder.state(0).xi, memory.ladder.state(1).xi,
                        crossover}) {
      for (double f : {0.5, 0.999, 1.0, 1.001, 2.0}) gaps.push_back(edge * f);
    }
    for (double g = 1e-9; g < 20.0; g *= 1.7) gaps.push_back(g);

    for (double gap : gaps) {
      double cheapest = p.p_active * gap;
      if (gap >= p.t_powerdown) {
        cheapest = std::min(cheapest, p.p_powerdown * gap + p.e_powerdown);
      }
      if (gap >= p.t_selfrefresh) {
        cheapest =
            std::min(cheapest, p.p_selfrefresh * gap + p.e_selfrefresh);
      }
      // An empty busy profile over [0, gap]: the horizon is the one gap.
      const double charged =
          charge(Schedule{}, memory, 0.0, gap).memory_total();
      EXPECT_NEAR(charged, cheapest, 1e-12 * cheapest)
          << "gap " << gap << " s, t_selfrefresh " << p.t_selfrefresh;
    }
  }
}

TEST(Dram, AbstractionMatchesPaperDefaults) {
  const auto p = DramPowerParams::paper_50nm();
  const auto a = abstraction_for(p);
  EXPECT_NEAR(a.alpha_m, 4.0, 1e-9);   // p_active - p_selfrefresh
  EXPECT_NEAR(a.xi_m, 0.040, 1e-9);    // pair / alpha_m
  EXPECT_NEAR(a.floor_power, 0.25, 1e-12);
}

TEST(Dram, AbstractionTracksTheMachine) {
  // For gaps where self refresh dominates, the ladder's charge equals the
  // abstract accounting plus the constant floor: ladder = (alpha_m model
  // with xi_m) + p_floor * horizon, within the shallow-state error.
  const auto p = DramPowerParams::paper_50nm();
  const auto a = abstraction_for(p);
  auto cfg = make_cfg(0.0, a.alpha_m);
  cfg.memory.xi_m = a.xi_m;
  for (double gap : {0.200, 0.500, 1.0}) {  // self refresh dominates here
    const auto sched = gap_schedule(gap);
    const double hi = 2.0 + gap;
    const double machine = charge(sched, p.memory(), 0.0, hi).memory_total();
    EnergyOptions opts;
    opts.horizon_lo = 0.0;
    opts.horizon_hi = hi;
    const double abstract =
        compute_energy(sched, cfg, opts).memory_total() + a.floor_power * hi;
    EXPECT_NEAR(machine, abstract, 0.01 * machine) << "gap " << gap;
  }
  // Mid-length gaps (40..137 ms here) are where the richer ladder beats the
  // two-state abstraction: the ladder drops to power-down, which the
  // abstraction cannot express — ladder <= abstraction always.
  for (double gap : {0.001, 0.060, 0.100, 0.200, 2.0}) {
    const auto sched = gap_schedule(gap);
    const double hi = 2.0 + gap;
    const double machine = charge(sched, p.memory(), 0.0, hi).memory_total();
    EnergyOptions opts;
    opts.horizon_lo = 0.0;
    opts.horizon_hi = hi;
    const double abstract =
        compute_energy(sched, cfg, opts).memory_total() + a.floor_power * hi;
    EXPECT_LE(machine, abstract + 1e-9) << "gap " << gap;
  }
}

TEST(Dram, EmptyScheduleSleepsWholeHorizon) {
  const auto p = DramPowerParams::paper_50nm();
  const auto r = charge(Schedule{}, p.memory(), 0.0, 10.0);
  EXPECT_EQ(r.memory_states[1].cycles, 1.0);
  EXPECT_NEAR(r.memory_states[1].residency_energy, p.p_selfrefresh * 10.0,
              1e-9);
}

TEST(Dram, StateNames) {
  const MemoryPower m = DramPowerParams::paper_50nm().memory();
  ASSERT_EQ(m.ladder.depth(), 2);
  EXPECT_EQ(m.ladder.state(0).name, "power-down");
  EXPECT_EQ(m.ladder.state(1).name, "self-refresh");
}

}  // namespace
}  // namespace sdem
