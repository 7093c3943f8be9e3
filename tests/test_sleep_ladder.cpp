// Tests for the multi-state memory sleep ladder (model/sleep_ladder.hpp),
// the gap walk of the energy accounting (sched/energy.hpp), and the
// predictive idle governor (sim/governor.hpp).
//
// The load-bearing contract: on the depth-1 ladder — the empty memory
// ladder, or SleepLadder::single(alpha_m, xi_m) — the walk must reproduce
// the frozen single-state rule (testing/gap_reference.hpp) *bit for bit*,
// for core and memory gaps, with EXPECT_EQ rather than EXPECT_NEAR: the
// compute_energy results in every committed --stable bench JSON were
// produced by that rule.
#include <gtest/gtest.h>

#include <string>

#include "model/sleep_ladder.hpp"
#include "sched/energy.hpp"
#include "sim/event_sim.hpp"
#include "sim/governor.hpp"
#include "sim/metrics.hpp"
#include "sim/policy.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "testing/gap_reference.hpp"
#include "testing/generators.hpp"
#include "testing/invariants.hpp"
#include "workload/generator.hpp"

namespace sdem {
namespace {

using test::make_cfg;

Schedule gap_schedule() {
  // One core, three bursts: a 10 ms gap and a 1 s gap.
  Schedule s;
  s.add(Segment{0, 0, 0.0, 1.0, 1000.0});
  s.add(Segment{1, 0, 1.010, 2.0, 1000.0});
  s.add(Segment{2, 0, 3.0, 3.5, 1000.0});
  return s;
}

// -- ladder construction and validation ------------------------------------

TEST(SleepLadder, SingleStoresXiVerbatim) {
  const double xi_m = 0.0123456789012345678;  // not exactly representable
  const auto ladder = SleepLadder::single(4.0, xi_m);
  ASSERT_EQ(ladder.depth(), 1);
  EXPECT_EQ(ladder.state(0).xi, xi_m);  // bitwise: stored, not re-derived
  EXPECT_EQ(ladder.state(0).power, 0.0);
  EXPECT_EQ(ladder.state(0).latency, 0.0);
  EXPECT_EQ(ladder.state(0).pair_energy, 4.0 * xi_m);
  EXPECT_TRUE(ladder.validate(4.0).empty());
}

TEST(SleepLadder, GeometricIsValidAndDeepestMatchesPaperState) {
  for (int depth : {1, 2, 3, 4, 6}) {
    const auto ladder = SleepLadder::geometric(4.0, 0.04, depth);
    ASSERT_EQ(ladder.depth(), depth);
    EXPECT_TRUE(ladder.validate(4.0).empty()) << ladder.validate(4.0);
    // Deepest rung is exactly the paper's single state.
    EXPECT_EQ(ladder.state(depth - 1).power, 0.0);
    EXPECT_EQ(ladder.state(depth - 1).xi, 0.04);
  }
}

TEST(SleepLadder, XiMonotoneIncreasingInDepth) {
  const auto ladder = SleepLadder::geometric(4.0, 0.04, 5);
  for (int k = 1; k < ladder.depth(); ++k) {
    EXPECT_LT(ladder.state(k - 1).xi, ladder.state(k).xi);
    EXPECT_GT(ladder.state(k - 1).power, ladder.state(k).power);
    EXPECT_LE(ladder.state(k - 1).latency, ladder.state(k).latency);
  }
}

TEST(SleepLadder, ValidateRejectsMalformedLadders) {
  SleepLadder over;
  over.add_state_exact({"x", 5.0, 0.01, 0.0, 0.005});
  EXPECT_FALSE(over.validate(4.0).empty());  // power >= alpha_m

  SleepLadder nonmono;
  nonmono.add_state_exact({"a", 2.0, 0.02, 0.0, 0.01});
  nonmono.add_state_exact({"b", 3.0, 0.06, 0.0, 0.06});
  EXPECT_FALSE(nonmono.validate(4.0).empty());  // power increases

  SleepLadder dominated;
  dominated.add_state_exact({"a", 2.0, 0.02, 0.0, 0.01});
  dominated.add_state_exact({"b", 1.0, 0.015, 0.0, 0.005});
  EXPECT_FALSE(dominated.validate(4.0).empty());  // xi decreases
}

TEST(SleepLadder, OracleAtDepthOneMatchesLegacyRule) {
  const double xi_m = 0.04;
  const auto ladder = SleepLadder::single(4.0, xi_m);
  EXPECT_EQ(ladder.oracle_state(xi_m * 0.999), -1);  // idle pays
  EXPECT_EQ(ladder.oracle_state(xi_m), 0);           // boundary sleeps
  EXPECT_EQ(ladder.oracle_state(xi_m * 10.0), 0);
}

TEST(SleepLadder, DeepestFitRespectsBreakEvenAndLatency) {
  const auto ladder = SleepLadder::geometric(4.0, 0.04, 4, /*latency=*/0.25);
  // xi[k] = 0.04 * (k+1)^2/16: {0.0025, 0.01, 0.0225, 0.04}.
  EXPECT_EQ(ladder.deepest_fit(0.001), -1);
  EXPECT_EQ(ladder.deepest_fit(0.005), 0);
  EXPECT_EQ(ladder.deepest_fit(0.015), 1);
  EXPECT_EQ(ladder.deepest_fit(1.0), 3);
  // A gap above xi but below the enter+exit latency must not fit.
  SleepLadder slow;
  slow.add_state_exact({"s", 0.0, 0.04, /*latency=*/0.5, /*xi=*/0.01});
  EXPECT_EQ(slow.deepest_fit(0.1), -1);
  EXPECT_EQ(slow.deepest_fit(0.6), 0);
}

// -- depth-1 differential vs the frozen single-state oracle ----------------

/// Every field the frozen single-state rule produces, compared bitwise.
void expect_matches_reference(const EnergyBreakdown& ref,
                              const EnergyBreakdown& e,
                              const std::string& where) {
  EXPECT_EQ(ref.core_idle, e.core_idle) << where;
  EXPECT_EQ(ref.core_transition, e.core_transition) << where;
  EXPECT_EQ(ref.core_total(), e.core_total()) << where;
  EXPECT_EQ(ref.memory_active, e.memory_active) << where;
  EXPECT_EQ(ref.memory_idle, e.memory_idle) << where;
  EXPECT_EQ(ref.memory_transition, e.memory_transition) << where;
  EXPECT_EQ(ref.memory_sleep_time, e.memory_sleep_time) << where;
  EXPECT_EQ(ref.memory_sleep_cycles, e.memory_sleep_cycles) << where;
  EXPECT_EQ(ref.memory_sleep_min, e.memory_sleep_min) << where;
  EXPECT_EQ(ref.memory_sleep_max, e.memory_sleep_max) << where;
  EXPECT_EQ(ref.memory_total(), e.memory_total()) << where;
  EXPECT_EQ(ref.system_total(), e.system_total()) << where;
}

constexpr SleepDiscipline kFixedDisciplines[] = {
    SleepDiscipline::kNever, SleepDiscipline::kAlways,
    SleepDiscipline::kOptimal};

TEST(SleepLadder, Depth1AccountingBitIdenticalToLegacy) {
  // gap_schedule, plus a schedule whose gap sums round differently unless
  // the trailing gap is folded second, as the oracle does.
  Schedule fold_order;
  fold_order.add(Segment{0, 0, 0.7, 1.2, 1000.0});
  fold_order.add(Segment{1, 0, 1.4, 2.4, 1000.0});
  struct Case {
    Schedule sched;
    double horizon_lo;
    double horizon_hi;
  };
  const Case cases[] = {{gap_schedule(), -0.5, 4.25}, {fold_order, -0.1, 3.0}};
  // Core and memory share the break-even time. xi = 1.0 is exactly the
  // length of gap_schedule's second internal gap, where the rule sleeps.
  for (const Case& c : cases) {
    for (double xi : {0.0, 0.007, 0.04, 0.2, 1.0, 1.5}) {
      auto empty_cfg = make_cfg(0.31, 4.0);
      empty_cfg.core.xi = xi;
      empty_cfg.memory.xi_m = xi;
      auto single_cfg = empty_cfg;
      single_cfg.memory.ladder = SleepLadder::single(4.0, xi);

      for (auto disc : kFixedDisciplines) {
        EnergyOptions opts;
        opts.memory_gaps = disc;
        opts.horizon_lo = c.horizon_lo;
        opts.horizon_hi = c.horizon_hi;
        const auto ref = testing::reference_energy(
            c.sched, empty_cfg, disc, c.horizon_lo, c.horizon_hi);
        const std::string where =
            "horizon_hi=" + std::to_string(c.horizon_hi) +
            " xi=" + std::to_string(xi) +
            " discipline=" + std::to_string(static_cast<int>(disc));
        expect_matches_reference(ref, compute_energy(c.sched, empty_cfg, opts),
                                 where + " empty ladder");
        expect_matches_reference(ref,
                                 compute_energy(c.sched, single_cfg, opts),
                                 where + " single ladder");
      }
    }
  }
}

TEST(SleepLadder, Depth1BitIdenticalOnSimulatedBurstyTraces) {
  // Same differential over real simulator output (leading/trailing horizon
  // gaps, multi-core overlap, replanned segments) across many seeds; the
  // core break-even sits inside the intra-burst gaps.
  for (std::uint64_t seed : {1u, 7u, 23u, 99u}) {
    BurstyParams p;
    p.num_tasks = 40;
    p.intra_spacing = 0.015;
    const auto trace = make_bursty(p, seed);
    auto empty_cfg = make_cfg(0.31, 4.0);
    empty_cfg.core.xi = 0.01;
    empty_cfg.memory.xi_m = 0.04;
    empty_cfg.num_cores = 8;
    auto single_cfg = empty_cfg;
    single_cfg.memory.ladder = SleepLadder::single(4.0, 0.04);

    MbkpPolicy pol;
    const auto sim = simulate(trace, empty_cfg, pol);
    for (auto disc : kFixedDisciplines) {
      const auto ref = testing::reference_energy(
          sim.schedule, empty_cfg, disc, sim.horizon_lo, sim.horizon_hi);
      const std::string where =
          "seed " + std::to_string(seed) +
          " discipline=" + std::to_string(static_cast<int>(disc));
      expect_matches_reference(
          ref, evaluate_policy(sim, empty_cfg, disc, "a").energy,
          where + " empty ladder");
      expect_matches_reference(
          ref, evaluate_policy(sim, single_cfg, disc, "b").energy,
          where + " single ladder");
    }
  }
}

// -- ladder accounting -----------------------------------------------------

TEST(SleepLadder, PerStateResidencyAndTransitionRollups) {
  auto cfg = make_cfg(0.0, 4.0);
  cfg.memory.xi_m = 0.04;
  cfg.memory.ladder = SleepLadder::geometric(4.0, 0.04, 4);
  EnergyOptions opts;
  opts.memory_gaps = SleepDiscipline::kOptimal;
  const auto e = compute_energy(gap_schedule(), cfg, opts);
  ASSERT_EQ(e.memory_states.size(), 4u);
  double residency = 0.0, transition = 0.0, cycles = 0.0;
  for (int k = 0; k < 4; ++k) {
    const auto& ps = e.memory_states[static_cast<std::size_t>(k)];
    EXPECT_EQ(ps.residency_energy,
              cfg.memory.ladder.state(k).power * ps.sleep_time);
    EXPECT_EQ(ps.transition_energy,
              cfg.memory.ladder.state(k).pair_energy * (ps.cycles + ps.aborts));
    residency += ps.residency_energy;
    transition += ps.transition_energy;
    cycles += ps.cycles;
  }
  EXPECT_EQ(e.memory_sleep_residency, residency);
  EXPECT_EQ(e.memory_transition, transition);
  EXPECT_EQ(e.memory_sleep_cycles, cycles);
  // Both gaps beat the deepest break-even (0.04): the 10 ms gap picks an
  // intermediate state, the 1 s gap the deepest one.
  EXPECT_GT(e.memory_sleep_residency, 0.0);
  EXPECT_EQ(e.memory_states[3].cycles, 1.0);
}

TEST(SleepLadder, OracleBeatsEveryFixedDisciplineOnMixedGaps) {
  auto cfg = make_cfg(0.0, 4.0);
  cfg.memory.xi_m = 0.04;
  cfg.memory.ladder = SleepLadder::geometric(4.0, 0.04, 4);
  const auto sched = gap_schedule();
  const auto eval = [&](SleepDiscipline d) {
    EnergyOptions opts;
    opts.memory_gaps = d;
    return compute_energy(sched, cfg, opts).memory_total();
  };
  const double oracle = eval(SleepDiscipline::kOptimal);
  EXPECT_LE(oracle, eval(SleepDiscipline::kNever));
  EXPECT_LE(oracle, eval(SleepDiscipline::kAlways));
}

TEST(SleepLadder, AbortChargesIdleAndPairWithoutResidency) {
  // One interior gap of 5 ms against a single state whose latency (20 ms)
  // cannot fit: kAlways commits anyway, so the gap must cost idle energy
  // plus the pair energy, count as an abort, and accumulate no residency.
  Schedule s;
  s.add(Segment{0, 0, 0.0, 1.0, 1000.0});
  s.add(Segment{1, 0, 1.005, 2.0, 1000.0});
  auto cfg = make_cfg(0.0, 4.0);
  cfg.memory.xi_m = 0.001;
  SleepLadder ladder;
  ladder.add_state_exact({"slow", 0.0, 0.004, /*latency=*/0.020, /*xi=*/0.001});
  cfg.memory.ladder = ladder;
  EnergyOptions opts;
  opts.memory_gaps = SleepDiscipline::kAlways;
  const auto e = compute_energy(s, cfg, opts);
  ASSERT_EQ(e.memory_states.size(), 1u);
  EXPECT_EQ(e.governor_aborts, 1.0);
  EXPECT_EQ(e.memory_states[0].aborts, 1.0);
  EXPECT_EQ(e.memory_states[0].sleep_time, 0.0);
  EXPECT_EQ(e.memory_states[0].residency_energy, 0.0);
  EXPECT_NEAR(e.memory_idle, 4.0 * 0.005, 1e-12);
  EXPECT_EQ(e.memory_states[0].transition_energy, 0.004);
}

// -- governor --------------------------------------------------------------

TEST(Governor, SelectsByPredictionAtBoundaryTightGaps) {
  const auto ladder = SleepLadder::geometric(4.0, 0.04, 4);
  // xi = {0.0025, 0.01, 0.0225, 0.04}.
  IdleGovernor gov;
  // Train on gaps of exactly 0.0225: prediction converges there, and the
  // deepest fitting state is index 2 — not 3, whose 0.04 does not fit.
  int k = gov.choose_state(ladder);
  EXPECT_EQ(k, ladder.depth() - 1);  // cold start commits deep
  for (int i = 0; i < 32; ++i) {
    gov.observe(0.0225, false);
    k = gov.choose_state(ladder);
  }
  EXPECT_EQ(gov.predict(), 0.0225);
  EXPECT_EQ(k, 2);
  // Just below the boundary the selection must drop to state 1.
  IdleGovernor tight;
  tight.choose_state(ladder);
  for (int i = 0; i < 32; ++i) tight.observe(0.0224, false);
  EXPECT_EQ(ladder.deepest_fit(0.0224), 1);  // 0.0224 < xi[2] = 0.0225
  EXPECT_EQ(tight.choose_state(ladder), 1);
}

TEST(Governor, MispredictAbortClampsThePredictor) {
  const auto ladder = SleepLadder::geometric(4.0, 0.04, 2, /*latency=*/0.3);
  IdleGovernor gov;
  gov.choose_state(ladder);
  for (int i = 0; i < 16; ++i) gov.observe(1.0, false);
  EXPECT_GT(gov.predict(), 0.5);
  // An aborted early wakeup snaps the estimate down immediately.
  gov.observe(0.002, true);
  EXPECT_EQ(gov.mispredict_clamps(), 1.0);
  EXPECT_LE(gov.predict(), 0.002 + 1e-12);
}

TEST(Governor, EarlyWakeupAccountingChargesAbortedPair) {
  // Governor trained long, then hit with a sub-latency gap: the ladder
  // accounting must record a governor abort and charge idle + pair.
  auto cfg = make_cfg(0.0, 4.0);
  cfg.memory.xi_m = 0.04;
  SleepLadder ladder;
  ladder.add_state_exact({"deep", 0.0, 0.16, /*latency=*/0.050, /*xi=*/0.04});
  cfg.memory.ladder = ladder;

  Schedule s;
  double t = 0.0, last_end = 0.0;
  for (int i = 0; i < 6; ++i) {  // five 1 s gaps train the governor long
    s.add(Segment{i, 0, t, t + 0.1, 1000.0});
    last_end = t + 0.1;
    t += 1.1;
  }
  // Final gap of 4 ms < the 50 ms latency: the trained-long governor
  // commits and must be charged an abort.
  s.add(Segment{6, 0, last_end + 0.004, last_end + 0.1, 1000.0});
  IdleGovernor gov;
  EnergyOptions opts;
  opts.memory_gaps = SleepDiscipline::kGovernor;
  opts.governor = &gov;
  const auto e = compute_energy(s, cfg, opts);
  EXPECT_EQ(e.governor_aborts, 1.0);
  EXPECT_EQ(e.memory_states[0].aborts, 1.0);
  EXPECT_EQ(e.memory_states[0].cycles, 5.0);
  EXPECT_NEAR(e.memory_idle, 4.0 * 0.004, 1e-12);
}

TEST(Governor, NullGovernorFallsBackToOracle) {
  auto cfg = make_cfg(0.0, 4.0);
  cfg.memory.xi_m = 0.04;
  cfg.memory.ladder = SleepLadder::geometric(4.0, 0.04, 3);
  EnergyOptions gov_opts;
  gov_opts.memory_gaps = SleepDiscipline::kGovernor;  // governor == nullptr
  EnergyOptions oracle_opts;
  oracle_opts.memory_gaps = SleepDiscipline::kOptimal;
  const auto a = compute_energy(gap_schedule(), cfg, gov_opts);
  const auto b = compute_energy(gap_schedule(), cfg, oracle_opts);
  EXPECT_EQ(a.memory_total(), b.memory_total());
}

TEST(Governor, DecisionsAreAPureFunctionOfTheObservationSequence) {
  const auto ladder = SleepLadder::geometric(4.0, 0.04, 4);
  Xoshiro256 rng(42);
  std::vector<double> gaps;
  for (int i = 0; i < 200; ++i) {
    gaps.push_back(rng.uniform() < 0.3 ? rng.uniform(0.05, 0.8)
                                       : rng.uniform(0.0005, 0.02));
  }
  const auto run = [&] {
    IdleGovernor gov;
    std::vector<int> decisions;
    for (double g : gaps) {
      const int k = gov.choose_state(ladder);
      decisions.push_back(k);
      const bool aborted = k >= 0 && g < ladder.state(k).latency;
      gov.observe(g, aborted);
    }
    return decisions;
  };
  EXPECT_EQ(run(), run());  // replay determinism, including cold start
}

// -- fuzz-class wiring -----------------------------------------------------

TEST(SleepLadder, FuzzClassGeneratesValidCasesAndChecksClean) {
  for (std::uint64_t seed : {3u, 17u, 301u}) {
    const auto c =
        testing::generate_case(testing::ModelClass::kSleepLadder, seed);
    ASSERT_TRUE(c.has_sleep_ladder());
    EXPECT_TRUE(
        c.cfg.memory.ladder.validate(c.cfg.memory.alpha_m).empty());
    EXPECT_GT(c.cfg.memory.xi_m, 0.0);
    const auto violations = testing::check_case(c);
    EXPECT_TRUE(violations.empty()) << testing::summarize(violations);
  }
}

}  // namespace
}  // namespace sdem
