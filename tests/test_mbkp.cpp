// Tests for the MBKP baseline policy.
#include <gtest/gtest.h>

#include <set>

#include "baseline/mbkp.hpp"
#include "sched/validate.hpp"
#include "sim/event_sim.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"

namespace sdem {
namespace {

using test::make_cfg;
using test::task;

SystemConfig sim_cfg() {
  auto cfg = make_cfg(0.31, 4.0, 1900.0);
  cfg.num_cores = 8;
  return cfg;
}

TEST(Mbkp, FinishesLightLoadWithoutMisses) {
  SyntheticParams p;
  p.num_tasks = 60;
  p.max_interarrival = 0.400;
  const TaskSet ts = make_synthetic(p, 11);
  MbkpPolicy pol;
  const auto res = simulate(ts, sim_cfg(), pol);
  EXPECT_EQ(res.unfinished, 0);
  EXPECT_EQ(res.deadline_misses, 0);
  ValidateOptions vopts;
  vopts.require_non_migrating = true;
  const auto v = validate_schedule(res.schedule, ts, sim_cfg(), vopts);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(Mbkp, TaskStaysOnItsCore) {
  SyntheticParams p;
  p.num_tasks = 40;
  p.max_interarrival = 0.100;
  const TaskSet ts = make_synthetic(p, 5);
  MbkpPolicy pol;
  const auto res = simulate(ts, sim_cfg(), pol);
  std::map<int, std::set<int>> cores_of;
  for (const auto& seg : res.schedule.segments()) {
    cores_of[seg.task_id].insert(seg.core);
  }
  for (const auto& [id, cores] : cores_of) {
    EXPECT_EQ(cores.size(), 1u) << "task " << id << " migrated";
  }
}

TEST(Mbkp, UsesMultipleCores) {
  SyntheticParams p;
  p.num_tasks = 64;
  p.max_interarrival = 0.050;
  const TaskSet ts = make_synthetic(p, 7);
  MbkpPolicy pol;
  const auto res = simulate(ts, sim_cfg(), pol);
  std::set<int> used;
  for (const auto& seg : res.schedule.segments()) used.insert(seg.core);
  EXPECT_GT(used.size(), 2u);
  EXPECT_LE(static_cast<int>(used.size()), 8);
}

TEST(Mbkp, SameDensityClassRoundRobins) {
  // Identical tasks arriving together must spread across cores.
  TaskSet ts;
  for (int i = 0; i < 8; ++i) ts.add(task(i, 0.0, 0.050, 3.0));
  MbkpPolicy pol;
  const auto res = simulate(ts, sim_cfg(), pol);
  std::set<int> used;
  for (const auto& seg : res.schedule.segments()) used.insert(seg.core);
  EXPECT_EQ(used.size(), 8u);
  EXPECT_EQ(res.deadline_misses, 0);
}

TEST(Mbkp, UnboundedDensityKeepsTheRunGoing) {
  // Task 1's density work / (deadline - release) overflows to inf, whose
  // cast to an int class is undefined. Clamped to DBL_MAX, it takes the
  // top class, and every task is scheduled.
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 100.0));
  ts.add(task(1, 0.1, 0.6, 1e308));
  ts.add(task(2, 0.2, 1.2, 100.0));
  MbkpPolicy pol;
  SimResult res;
  ASSERT_NO_THROW(res = simulate(ts, sim_cfg(), pol));
  EXPECT_EQ(res.replans, 3);
  std::set<int> ran;
  for (const auto& seg : res.schedule.segments()) {
    EXPECT_GE(seg.core, 0);
    EXPECT_LT(seg.core, 8);
    ran.insert(seg.task_id);
  }
  EXPECT_EQ(ran, (std::set<int>{0, 1, 2}));
}

TEST(Mbkp, SpeedsRespectCap) {
  SyntheticParams p;
  p.num_tasks = 50;
  p.max_interarrival = 0.020;  // busy
  const TaskSet ts = make_synthetic(p, 13);
  MbkpPolicy pol;
  const auto res = simulate(ts, sim_cfg(), pol);
  for (const auto& seg : res.schedule.segments()) {
    EXPECT_LE(seg.speed, 1900.0 * (1.0 + 1e-9));
  }
}

}  // namespace
}  // namespace sdem
