// Tests for multi-rank memory accounting.
#include <gtest/gtest.h>

#include <utility>

#include "mem/ranks.hpp"
#include "model/access.hpp"
#include "sched/energy.hpp"
#include "test_util.hpp"

namespace sdem {
namespace {

Schedule interleaved() {
  // Cores 0 and 1 alternate so the device-level memory never idles, but
  // each core (rank) individually idles half the time.
  Schedule s;
  s.add(Segment{0, 0, 0.0, 1.0, 100.0});
  s.add(Segment{1, 1, 1.0, 2.0, 100.0});
  s.add(Segment{2, 0, 2.0, 3.0, 100.0});
  s.add(Segment{3, 1, 3.0, 4.0, 100.0});
  return s;
}

TEST(Ranks, SingleRankEqualsMonolithicAccounting) {
  MemoryPower mem{4.0, 0.2, {}};
  const auto sched = interleaved();
  const auto r = rank_memory_energy(sched, mem, 1, 2, 0.0, 4.0);
  auto cfg = test::make_cfg(0.0, mem.alpha_m);
  cfg.memory.xi_m = mem.xi_m;
  EnergyOptions opts;
  opts.horizon_lo = 0.0;
  opts.horizon_hi = 4.0;
  const auto e = compute_energy(sched, cfg, opts);
  EXPECT_NEAR(r.memory_total(), e.memory_total(), 1e-12);
}

TEST(Ranks, OneRankAndAccessMatchBatchAccountingAtAnyHorizon) {
  // A schedule that starts after t = 0: with an unset horizon (hi <= lo)
  // the busy span is the horizon, so no gap runs from horizon_lo.
  Schedule s;
  s.add(Segment{0, 0, 1.0, 2.0, 100.0});
  s.add(Segment{1, 1, 2.5, 3.0, 100.0});
  auto cfg = test::make_cfg(0.0, 4.0);
  cfg.memory.xi_m = 0.04;
  for (const auto& [lo, hi] : {std::pair{0.0, 0.0}, std::pair{0.0, 4.0}}) {
    EnergyOptions opts;
    opts.horizon_lo = lo;
    opts.horizon_hi = hi;
    const double batch = compute_energy(s, cfg, opts).memory_total();
    EXPECT_EQ(rank_memory_energy(s, cfg.memory, 1, 2, lo, hi).memory_total(),
              batch)
        << "horizon [" << lo << ", " << hi << "]";
    EnergyBreakdown access;
    add_memory_energy(memory_busy_with_access(s, {}), cfg.memory, opts,
                      access);
    EXPECT_EQ(access.memory_total(), batch)
        << "horizon [" << lo << ", " << hi << "]";
  }
}

TEST(Ranks, PerCoreRanksDecoupleIdleTime) {
  MemoryPower mem{4.0, 0.0, {}};  // free transitions to isolate the effect
  const auto sched = interleaved();
  const auto mono = rank_memory_energy(sched, mem, 1, 2, 0.0, 4.0);
  const auto duo = rank_memory_energy(sched, mem, 2, 2, 0.0, 4.0);
  // Monolithic: busy all 4 s at 4 W = 16 J. Two ranks: each 2 W, busy 2 s
  // => 8 J total. The decoupling halves the leakage.
  EXPECT_NEAR(mono.memory_total(), 16.0, 1e-12);
  EXPECT_NEAR(duo.memory_total(), 8.0, 1e-12);
  EXPECT_GT(duo.memory_sleep_time, mono.memory_sleep_time);
}

TEST(Ranks, LeakageConserved) {
  // Fully busy schedule: rank count must not change the energy.
  Schedule s;
  s.add(Segment{0, 0, 0.0, 2.0, 100.0});
  s.add(Segment{1, 1, 0.0, 2.0, 100.0});
  MemoryPower mem{4.0, 0.0, {}};
  for (int ranks : {1, 2}) {
    const auto r = rank_memory_energy(s, mem, ranks, 2, 0.0, 2.0);
    EXPECT_NEAR(r.memory_total(), 8.0, 1e-12) << ranks << " ranks";
  }
}

TEST(Ranks, BreakEvenPerRank) {
  // A 1 s gap on rank 0 only; xi_m above/below the gap flips its decision.
  Schedule s;
  s.add(Segment{0, 0, 0.0, 1.0, 100.0});
  s.add(Segment{1, 0, 2.0, 3.0, 100.0});
  s.add(Segment{2, 1, 0.0, 3.0, 100.0});
  MemoryPower nap{4.0, 0.5, {}};
  const auto r1 = rank_memory_energy(s, nap, 2, 2, 0.0, 3.0);
  // Rank power 2 W * xi_m.
  EXPECT_NEAR(r1.memory_transition, 2.0 * 0.5, 1e-12);
  EXPECT_NEAR(r1.memory_sleep_time, 1.0, 1e-12);
  MemoryPower stay{4.0, 2.0, {}};
  const auto r2 = rank_memory_energy(s, stay, 2, 2, 0.0, 3.0);
  EXPECT_NEAR(r2.memory_idle, 2.0 * 1.0, 1e-12);
  EXPECT_EQ(r2.memory_sleep_time, 0.0);
}

TEST(Ranks, IdleRankSleepsWholeHorizon) {
  Schedule s;
  s.add(Segment{0, 0, 0.0, 1.0, 100.0});
  MemoryPower mem{4.0, 0.0, {}};
  const auto r = rank_memory_energy(s, mem, 4, 4, 0.0, 1.0);
  // Only rank 0 is ever busy: 1 W * 1 s; other ranks sleep free.
  EXPECT_NEAR(r.memory_total(), 1.0, 1e-12);
  EXPECT_NEAR(r.memory_sleep_time, 3.0, 1e-12);
}

TEST(Ranks, MoreRanksNeverCostMore) {
  const auto sched = interleaved();
  MemoryPower mem{4.0, 0.3, {}};
  double prev = 1e18;
  for (int ranks : {1, 2, 4}) {
    const auto r = rank_memory_energy(sched, mem, ranks, 2, 0.0, 4.0);
    EXPECT_LE(r.memory_total(), prev + 1e-9) << ranks;
    prev = r.memory_total();
  }
}

}  // namespace
}  // namespace sdem
