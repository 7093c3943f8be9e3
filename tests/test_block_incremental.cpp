// Golden-equivalence suite for the incremental block solver
// (core/block_context.hpp) against the seed implementation it replaced
// (solve_block_reference / solve_agreeable_reference): energies must agree
// to <= 1e-9 relative, feasibility decisions must be identical, schedules
// must stay validator-clean, and the row-parallel DP must be bit-identical
// to the serial fill at any worker count.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/agreeable.hpp"
#include "core/block.hpp"
#include "core/block_context.hpp"
#include "sched/validate.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace sdem {
namespace {

using test::expect_near_rel;
using test::local_counter;
using test::make_cfg;
using test::task;

/// Fast vs reference single-block comparison on one task vector.
void expect_block_matches(const std::vector<Task>& tasks,
                          const SystemConfig& cfg, const char* what) {
  const BlockResult fast = solve_block(tasks, cfg);
  const BlockResult ref = solve_block_reference(tasks, cfg);
  ASSERT_EQ(fast.feasible, ref.feasible) << what;
  if (!ref.feasible) return;
  expect_near_rel(ref.energy, fast.energy, 1e-9, what);
  // The optima themselves can drift along flat valley floors, but both must
  // price to the same objective value under the exact evaluator.
  expect_near_rel(block_energy_at(tasks, cfg, ref.s, ref.e),
                  block_energy_at(tasks, cfg, fast.s, fast.e), 1e-9, what);
  ASSERT_EQ(fast.placements.size(), ref.placements.size()) << what;
}

/// Fast vs reference DP comparison on one task set, plus validation.
void expect_agreeable_matches(const TaskSet& ts, const SystemConfig& cfg,
                              const char* what) {
  const OfflineResult fast = solve_agreeable(ts, cfg);
  const OfflineResult ref = solve_agreeable_reference(ts, cfg);
  ASSERT_EQ(fast.feasible, ref.feasible) << what;
  if (!ref.feasible) return;
  expect_near_rel(ref.energy, fast.energy, 1e-9, what);
  EXPECT_EQ(fast.case_index, ref.case_index) << what;  // same block count
  expect_near_rel(ref.sleep_time, fast.sleep_time, 1e-9, what);
  const auto v = validate_schedule(fast.schedule, ts, cfg);
  EXPECT_TRUE(v.ok) << what << ": " << v.error;
}

TEST(BlockIncremental, MatchesReferenceOnAgreeableSets) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto cfg = make_cfg(seed % 2 ? 0.31 : 0.0, 4.0, 1900.0);
    const TaskSet ts = make_agreeable(2 + static_cast<int>(seed % 7), seed,
                                      0.010 + 0.015 * (seed % 5));
    expect_block_matches(ts.sorted_by_deadline().tasks(), cfg, "agreeable");
  }
}

TEST(BlockIncremental, MatchesReferenceOnCommonReleaseSets) {
  // Common releases make every later task span the earlier boxes, which
  // exercises the both-sides-clipped (coupled) class of the classifier.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto cfg = make_cfg(seed % 2 ? 0.31 : 0.0, 4.0, 1900.0);
    const TaskSet ts =
        make_common_release(3 + static_cast<int>(seed % 6), 0.0, seed);
    expect_block_matches(ts.sorted_by_deadline().tasks(), cfg, "common");
  }
}

TEST(BlockIncremental, MatchesReferenceUnderTightSpeedCap) {
  // A low s_up pushes optima onto the feasibility boundary, where the
  // 1e-9 slack of the clamped regime decides feasibility; fast and
  // reference must make identical calls either way.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto cfg = make_cfg(0.31, 4.0, 700.0 + 50.0 * (seed % 4));
    const TaskSet ts = make_agreeable(2 + static_cast<int>(seed % 5), seed,
                                      0.020);
    expect_block_matches(ts.sorted_by_deadline().tasks(), cfg, "tight cap");
  }
}

TEST(BlockIncremental, DegenerateSingleTask) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  expect_block_matches({task(0, 0.0, 0.100, 3.0)}, cfg, "single");
  expect_block_matches({task(0, 0.0, 0.100, 0.0)}, cfg, "single zero-work");
}

TEST(BlockIncremental, DegenerateZeroWorkTaskInVector) {
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  std::vector<Task> ts{task(0, 0.000, 0.050, 2.0), task(1, 0.010, 0.060, 0.0),
                       task(2, 0.020, 0.080, 3.0)};
  expect_block_matches(ts, cfg, "zero-work inside");
}

TEST(BlockIncremental, DegenerateClippedBothSides) {
  // Task 0 spans the whole horizon while later deadlines carve interior e'
  // boxes: inside them task 0 is clipped on both sides (W = e' - s').
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  std::vector<Task> ts{task(0, 0.000, 0.200, 1.0), task(1, 0.000, 0.210, 4.0),
                       task(2, 0.000, 0.240, 2.0), task(3, 0.000, 0.300, 3.0)};
  expect_block_matches(ts, cfg, "coupled");
}

TEST(BlockIncremental, InfeasibleBlockDetected) {
  // 5 Mc inside 1 ms needs 5000 MHz > s_up = 1900: both paths infeasible,
  // and the context prunes it without opening a box.
  const auto cfg = make_cfg(0.31, 4.0, 1900.0);
  const std::vector<Task> ts{task(0, 0.0, 0.001, 5.0)};
  EXPECT_FALSE(solve_block(ts, cfg).feasible);
  EXPECT_FALSE(solve_block_reference(ts, cfg).feasible);
  BlockContext ctx(cfg);
  ctx.push_task(ts[0]);
  EXPECT_TRUE(ctx.block_infeasible());
  EXPECT_FALSE(ctx.solve().feasible);
}

TEST(BlockIncremental, ContextGrowsLikeFreshSolves) {
  // The incremental context after k pushes must match a fresh solve of the
  // first k tasks — the exact access pattern of the DP's rows.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto cfg = make_cfg(seed % 2 ? 0.31 : 0.0, 4.0, 1900.0);
    const auto sorted =
        make_agreeable(6, seed, 0.030).sorted_by_deadline().tasks();
    BlockContext ctx(cfg);
    std::vector<Task> prefix;
    for (const Task& t : sorted) {
      ctx.push_task(t);
      prefix.push_back(t);
      const BlockSolution inc = ctx.solve();
      const BlockResult ref = solve_block_reference(prefix, cfg);
      ASSERT_EQ(inc.feasible, ref.feasible) << "seed " << seed;
      if (ref.feasible)
        expect_near_rel(ref.energy, inc.energy, 1e-9, "prefix energy");
    }
  }
}

TEST(BlockIncremental, AgreeableDpMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const auto cfg = make_cfg(seed % 2 ? 0.31 : 0.0, 4.0, 1900.0);
    const TaskSet ts = make_agreeable(3 + static_cast<int>(seed % 6), seed,
                                      0.010 + 0.030 * (seed % 4));
    expect_agreeable_matches(ts, cfg, "agreeable DP");
  }
}

TEST(BlockIncremental, AgreeableDpMatchesReferenceCommonRelease) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto cfg = make_cfg(0.31, 4.0, 1900.0);
    const TaskSet ts =
        make_common_release(4 + static_cast<int>(seed % 4), 0.0, seed);
    expect_agreeable_matches(ts, cfg, "common-release DP");
  }
}

TEST(BlockIncremental, RowParallelBitIdenticalAcrossJobs) {
  // The DP's parallel row fill must be bit-identical to the serial fill —
  // not just close: EXPECT_EQ on the doubles.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto cfg = make_cfg(seed % 2 ? 0.31 : 0.0, 4.0, 1900.0);
    const TaskSet ts = make_agreeable(7, seed, 0.040);
    const OfflineResult serial = solve_agreeable(ts, cfg, nullptr);
    for (int jobs : {1, 2, 8}) {
      ThreadPool pool(jobs);
      const OfflineResult par = solve_agreeable(ts, cfg, &pool);
      ASSERT_EQ(serial.feasible, par.feasible) << "jobs " << jobs;
      EXPECT_EQ(serial.energy, par.energy) << "jobs " << jobs;
      EXPECT_EQ(serial.sleep_time, par.sleep_time) << "jobs " << jobs;
      EXPECT_EQ(serial.case_index, par.case_index) << "jobs " << jobs;
      ASSERT_EQ(serial.schedule.segments().size(),
                par.schedule.segments().size())
          << "jobs " << jobs;
    }
  }
}

TEST(BlockIncremental, CrossCheckAuditsCleanly) {
  // Audit mode recomputes every fast probe with the exact O(k) evaluator;
  // a single regime or classification mismatch would count as a failure.
  BlockContext::reset_cross_check_counters();
  BlockContext::set_cross_check(true);
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto cfg = make_cfg(seed % 2 ? 0.31 : 0.0, 4.0, 1900.0);
    const TaskSet ts = make_agreeable(5, seed, 0.030);
    solve_agreeable(ts, cfg);
  }
  BlockContext::set_cross_check(false);
  EXPECT_GT(BlockContext::cross_check_probes(), 0u);
  EXPECT_EQ(BlockContext::cross_check_failures(), 0u);
  BlockContext::reset_cross_check_counters();
}

TEST(BlockIncremental, CrossCheckAuditsLongBlocksCleanly) {
  // Paper-default sets with long blocks: n = 16 at a 60 ms spread, and
  // n = 10 at a 10 ms spread, whose tight windows open boxes with 8 or
  // more dynamic lanes. Zero audit failures, and auditing only observes:
  // each audited solve is bit-identical to the plain one.
  const SystemConfig cfg = SystemConfig::paper_default();
  std::vector<TaskSet> cases;
  for (const std::uint64_t seed : {1ull, 5ull, 9ull}) {
    cases.push_back(make_agreeable(16, seed, 0.060));
  }
  cases.push_back(make_agreeable(10, 1, 0.010));
  std::vector<OfflineResult> plain;
  for (const TaskSet& ts : cases) plain.push_back(solve_agreeable(ts, cfg));

  BlockContext::reset_cross_check_counters();
  BlockContext::set_cross_check(true);
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const OfflineResult audited = solve_agreeable(cases[k], cfg);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(audited.energy),
              std::bit_cast<std::uint64_t>(plain[k].energy))
        << "case " << k;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(audited.sleep_time),
              std::bit_cast<std::uint64_t>(plain[k].sleep_time))
        << "case " << k;
  }
  BlockContext::set_cross_check(false);
  EXPECT_GT(BlockContext::cross_check_probes(), 0u);
  EXPECT_EQ(BlockContext::cross_check_failures(), 0u);
  BlockContext::reset_cross_check_counters();
}

TEST(BlockIncremental, BoxSearchStopsAtItsNoiseFloor) {
  // ablation_blocks' 48 cells (n = 8, xi_m = 0): the DP, one block, and
  // one block per task. A box's alternation ends at the first round that
  // does not strictly improve its incumbent. Without that stop, these
  // cells take about 13 rounds per box and 3,000 probes per solve.
  auto cfg = SystemConfig::paper_default();
  cfg.memory.xi_m = 0.0;
  const char* keys[] = {"block/solves", "block/boxes_opened", "block/probes",
                        "block/search_rounds"};
  std::uint64_t before[4];
  for (int k = 0; k < 4; ++k) before[k] = local_counter(keys[k]);
  for (const double spread : {0.005, 0.020, 0.050, 0.100, 0.200, 0.400}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const TaskSet ts =
          make_agreeable(8, seed * 131 + int(spread * 1e4), spread);
      ASSERT_TRUE(solve_agreeable(ts, cfg).feasible);
      const auto sorted = ts.sorted_by_deadline().tasks();
      ASSERT_TRUE(solve_block(sorted, cfg).feasible);
      for (const Task& t : sorted) ASSERT_TRUE(solve_block({t}, cfg).feasible);
    }
  }
  std::uint64_t d[4];
  for (int k = 0; k < 4; ++k) d[k] = local_counter(keys[k]) - before[k];
  ASSERT_GT(d[0], 0u);
  ASSERT_GT(d[1], 0u);
  EXPECT_LE(d[2], 1000 * d[0]) << d[2] << " probes over " << d[0] << " solves";
  EXPECT_LE(d[3], 4 * d[1]) << d[3] << " rounds over " << d[1] << " boxes";
}

}  // namespace
}  // namespace sdem
