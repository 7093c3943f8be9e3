// Tests for the memory-access-pattern extension.
#include <gtest/gtest.h>

#include "model/access.hpp"
#include "sched/energy.hpp"
#include "test_util.hpp"

namespace sdem {
namespace {

/// The memory charge on the access-phase busy profile.
EnergyBreakdown access_energy(const Schedule& sched,
                              const std::map<int, TaskAccess>& access,
                              const MemoryPower& memory, double horizon_lo,
                              double horizon_hi) {
  EnergyOptions opts;
  opts.horizon_lo = horizon_lo;
  opts.horizon_hi = horizon_hi;
  EnergyBreakdown e;
  add_memory_energy(memory_busy_with_access(sched, access), memory, opts, e);
  return e;
}

Schedule two_segments() {
  Schedule s;
  s.add(Segment{0, 0, 0.0, 1.0, 1000.0});
  s.add(Segment{1, 1, 2.0, 3.0, 1000.0});
  return s;
}

TEST(Access, DefaultIsWholeExecution) {
  const auto busy = memory_busy_with_access(two_segments(), {});
  ASSERT_EQ(busy.size(), 2u);
  EXPECT_DOUBLE_EQ(busy[0].lo, 0.0);
  EXPECT_DOUBLE_EQ(busy[0].hi, 1.0);
}

TEST(Access, PrefixShrinksBusyFromTheRight) {
  std::map<int, TaskAccess> acc;
  acc[0] = {AccessPattern::kPrefix, 0.25};
  const auto busy = memory_busy_with_access(two_segments(), acc);
  ASSERT_EQ(busy.size(), 2u);
  EXPECT_DOUBLE_EQ(busy[0].hi, 0.25);
  EXPECT_DOUBLE_EQ(busy[1].lo, 2.0);  // task 1 untouched
}

TEST(Access, SuffixShrinksBusyFromTheLeft) {
  std::map<int, TaskAccess> acc;
  acc[1] = {AccessPattern::kSuffix, 0.5};
  const auto busy = memory_busy_with_access(two_segments(), acc);
  ASSERT_EQ(busy.size(), 2u);
  EXPECT_DOUBLE_EQ(busy[1].lo, 2.5);
  EXPECT_DOUBLE_EQ(busy[1].hi, 3.0);
}

TEST(Access, ZeroFractionRemovesTask) {
  std::map<int, TaskAccess> acc;
  acc[0] = {AccessPattern::kWhole, 0.0};
  const auto busy = memory_busy_with_access(two_segments(), acc);
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_DOUBLE_EQ(busy[0].lo, 2.0);
}

TEST(Access, OverlappingAccessPhasesMerge) {
  Schedule s;
  s.add(Segment{0, 0, 0.0, 1.0, 100.0});
  s.add(Segment{1, 1, 0.5, 1.5, 100.0});
  std::map<int, TaskAccess> acc;
  acc[0] = {AccessPattern::kSuffix, 0.6};  // [0.4, 1.0]
  acc[1] = {AccessPattern::kPrefix, 0.6};  // [0.5, 1.1]
  const auto busy = memory_busy_with_access(s, acc);
  ASSERT_EQ(busy.size(), 1u);
  EXPECT_DOUBLE_EQ(busy[0].lo, 0.4);
  EXPECT_DOUBLE_EQ(busy[0].hi, 1.1);
}

TEST(Access, EnergyNeverExceedsWholeModel) {
  // Shrinking access phases can only reduce memory energy (with free
  // transitions) — the paper's whole-execution model is conservative.
  MemoryPower mem{4.0, 0.0, {}};
  const auto sched = two_segments();
  const auto whole = access_energy(sched, {}, mem, 0.0, 3.0);
  std::map<int, TaskAccess> acc;
  acc[0] = {AccessPattern::kPrefix, 0.3};
  acc[1] = {AccessPattern::kSuffix, 0.5};
  const auto partial = access_energy(sched, acc, mem, 0.0, 3.0);
  EXPECT_LT(partial.memory_total(), whole.memory_total());
  EXPECT_GT(partial.memory_sleep_time, whole.memory_sleep_time);
}

TEST(Access, BreakEvenRespected) {
  MemoryPower mem{4.0, 2.0, {}};  // interior gap of 1 s is below break-even
  const auto e = access_energy(two_segments(), {}, mem, 0.0, 3.0);
  EXPECT_DOUBLE_EQ(e.memory_idle, 4.0 * 1.0);
  EXPECT_EQ(e.memory_sleep_time, 0.0);
  MemoryPower mem2{4.0, 0.5, {}};
  const auto e2 = access_energy(two_segments(), {}, mem2, 0.0, 3.0);
  EXPECT_DOUBLE_EQ(e2.memory_transition, 4.0 * 0.5);
  EXPECT_DOUBLE_EQ(e2.memory_sleep_time, 1.0);
}

TEST(Access, MatchesComputeEnergyOnWholeModel) {
  // With kWhole everywhere the access-aware accounting equals the standard
  // one (busy-span horizon, optimal discipline).
  auto cfg = test::make_cfg(0.0, 4.0);
  cfg.memory.xi_m = 0.3;
  const auto sched = two_segments();
  const auto a = access_energy(sched, {}, cfg.memory, sched.start_time(),
                               sched.end_time());
  EnergyOptions opts;
  const auto e = compute_energy(sched, cfg, opts);
  EXPECT_NEAR(a.memory_total(), e.memory_total(), 1e-12);
}

}  // namespace
}  // namespace sdem
