// Tests for the SDEM-ON online heuristic (§6).
#include <gtest/gtest.h>

#include "core/common_release_alpha.hpp"
#include "core/online_sdem.hpp"
#include "sched/validate.hpp"
#include "sim/event_sim.hpp"
#include "sim/sim_reference.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace sdem {
namespace {

using test::expect_near_rel;
using test::make_cfg;
using test::task;

SystemConfig sim_cfg(double alpha = 0.31) {
  auto cfg = make_cfg(alpha, 4.0, 1900.0);
  cfg.num_cores = 8;
  return cfg;
}

TEST(SdemOn, SingleTaskMatchesOfflineOptimum) {
  // One task arriving alone: the online plan is exactly the Section 4
  // single-task optimum (procrastinate, then run p = w / s*).
  TaskSet ts;
  ts.add(task(0, 0.0, 0.100, 3.0));
  SdemOnPolicy pol;
  const auto cfg = sim_cfg();
  const auto res = simulate(ts, cfg, pol);
  EXPECT_EQ(res.deadline_misses, 0);
  const auto offline = solve_common_release_alpha(ts, cfg);
  ASSERT_TRUE(offline.feasible);
  ASSERT_EQ(res.schedule.size(), 1u);
  const auto& seg = res.schedule.segments()[0];
  const auto& off_seg = offline.schedule.segments()[0];
  expect_near_rel(off_seg.speed, seg.speed, 1e-9, "planned speed");
  // Procrastinated: the task ends exactly at its deadline.
  expect_near_rel(0.100, seg.end, 1e-9, "procrastinated finish");
}

TEST(SdemOn, ProcrastinationAlignsArrivals) {
  // Task 1 is lazy; task 2 arrives before task 1's latest start. Both runs
  // must overlap (that is the whole point of SDEM-ON).
  TaskSet ts;
  ts.add(task(0, 0.000, 0.200, 3.0));
  ts.add(task(1, 0.010, 0.210, 3.0));
  SdemOnPolicy pol;
  const auto res = simulate(ts, sim_cfg(), pol);
  EXPECT_EQ(res.deadline_misses, 0);
  const auto by_task = res.schedule.by_task();
  const auto& a = by_task.at(0);
  const auto& b = by_task.at(1);
  const double a_start = a.front().start;
  const double b_start = b.front().start;
  expect_near_rel(a_start, b_start, 1e-6, "batch starts together");
}

TEST(SdemOn, NoMissesOnGeneratedWorkloads) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    SyntheticParams p;
    p.num_tasks = 60;
    p.max_interarrival = 0.200;
    const TaskSet ts = make_synthetic(p, seed);
    SdemOnPolicy pol;
    const auto res = simulate(ts, sim_cfg(), pol);
    EXPECT_EQ(res.unfinished, 0) << "seed " << seed;
    EXPECT_EQ(res.deadline_misses, 0) << "seed " << seed;
    ValidateOptions vopts;
    vopts.require_non_migrating = false;  // replans may move cores
    const auto v = validate_schedule(res.schedule, ts, sim_cfg(), vopts);
    EXPECT_TRUE(v.ok) << v.error << " seed " << seed;
  }
}

TEST(SdemOn, WorksWithAlphaZeroModel) {
  SyntheticParams p;
  p.num_tasks = 40;
  p.max_interarrival = 0.300;
  const TaskSet ts = make_synthetic(p, 3);
  SdemOnPolicy pol;
  const auto res = simulate(ts, sim_cfg(0.0), pol);
  EXPECT_EQ(res.unfinished, 0);
  EXPECT_EQ(res.deadline_misses, 0);
}

TEST(SdemOn, WorksWithTransitionOverheads) {
  auto cfg = sim_cfg();
  cfg.memory.xi_m = 0.040;
  SyntheticParams p;
  p.num_tasks = 40;
  p.max_interarrival = 0.300;
  const TaskSet ts = make_synthetic(p, 9);
  SdemOnPolicy pol;
  const auto res = simulate(ts, cfg, pol);
  EXPECT_EQ(res.unfinished, 0);
  EXPECT_EQ(res.deadline_misses, 0);
}

TEST(SdemOn, SharedCoreSerializesEdf) {
  // Two tasks forced onto one core must not overlap.
  auto cfg = sim_cfg();
  cfg.num_cores = 1;
  TaskSet ts;
  ts.add(task(0, 0.0, 0.100, 3.0));
  ts.add(task(1, 0.0, 0.200, 3.0));
  SdemOnPolicy pol;
  const auto res = simulate(ts, cfg, pol);
  EXPECT_EQ(res.deadline_misses, 0);
  const auto v = validate_schedule(res.schedule, ts, cfg);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(SdemOn, OverloadedCoreRacesAtSup) {
  // Infeasible pair on one core: the policy compresses to s_up and the miss
  // is recorded rather than crashing.
  auto cfg = sim_cfg();
  cfg.num_cores = 1;
  TaskSet ts;
  ts.add(task(0, 0.0, 0.010, 15.0));
  ts.add(task(1, 0.0, 0.011, 15.0));  // 30 Mc in 11 ms needs 2727 MHz
  SdemOnPolicy pol;
  const auto res = simulate(ts, cfg, pol);
  EXPECT_EQ(res.unfinished, 0);  // all work done, just late
  EXPECT_GE(res.deadline_misses, 1);
}

TEST(SdemOn, OverdueTaskStillGetsAPlan) {
  // An overdue task is re-released with deadline now + remaining / s_up.
  // At this `now` that sum rounds down, so the window alone would ask a
  // speed just above the solvers' admission test s_up·(1 + 1e-12): the
  // solver would refuse it, the plan would come back empty, and the task
  // would block its island for good. Both copies of the policy must widen
  // the window until the test passes and run the task.
  const auto cfg = SystemConfig::paper_default();
  PendingTask p;
  p.task = task(7, 76.0, 76.5, 2.765207077218265);
  p.remaining = p.task.work;
  const std::vector<PendingTask> pending{p};
  const double now = 76.6136872786848;
  SdemOnPolicy fast;
  SdemOnReferencePolicy ref;
  for (const auto& plan : {fast.replan(now, pending, cfg),
                           ref.replan(now, pending, cfg)}) {
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0].task_id, 7);
    EXPECT_GE(plan[0].start, now);
    EXPECT_NEAR(plan[0].end - plan[0].start,
                p.remaining / cfg.core.max_speed(), 1e-12);
  }
}

}  // namespace
}  // namespace sdem
