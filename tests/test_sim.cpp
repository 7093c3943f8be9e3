// Tests for the discrete-event online simulator.
#include <gtest/gtest.h>

#include <cmath>

#include "sim/event_sim.hpp"
#include "test_util.hpp"

namespace sdem {
namespace {

using test::make_cfg;
using test::task;

/// Trivial policy: run each pending task immediately at its filled speed of
/// the remaining window.
class RunNowPolicy : public OnlinePolicy {
 public:
  std::string name() const override { return "run-now"; }
  std::vector<Segment> replan(double now,
                              const std::vector<PendingTask>& pending,
                              const SystemConfig& cfg) override {
    (void)cfg;
    std::vector<Segment> plan;
    for (const auto& p : pending) {
      const double len = p.task.deadline - now;
      plan.push_back(Segment{p.task.id, p.core, now, now + len,
                             p.remaining / len});
    }
    return plan;
  }
};

/// Policy that never schedules anything (for unfinished-task accounting).
class LazyPolicy : public OnlinePolicy {
 public:
  std::string name() const override { return "lazy"; }
  std::vector<Segment> replan(double, const std::vector<PendingTask>&,
                              const SystemConfig&) override {
    return {};
  }
};

TEST(Sim, SingleTaskRunsToCompletion) {
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 100.0));
  RunNowPolicy pol;
  const auto res = simulate(ts, make_cfg(0.0, 4.0, 0.0), pol);
  EXPECT_EQ(res.deadline_misses, 0);
  EXPECT_EQ(res.unfinished, 0);
  EXPECT_EQ(res.replans, 1);
  EXPECT_NEAR(res.schedule.task_work(0), 100.0, 1e-6);
}

TEST(Sim, ArrivalClipsThePlan) {
  // Second task arrives mid-flight: the first plan is clipped at t=0.5 and
  // replanned; total work must still be conserved.
  TaskSet ts;
  ts.add(task(0, 0.0, 2.0, 100.0));
  ts.add(task(1, 0.5, 2.5, 50.0));
  RunNowPolicy pol;
  const auto res = simulate(ts, make_cfg(0.0, 4.0, 0.0), pol);
  EXPECT_EQ(res.replans, 2);
  EXPECT_EQ(res.unfinished, 0);
  EXPECT_NEAR(res.schedule.task_work(0), 100.0, 1e-6);
  EXPECT_NEAR(res.schedule.task_work(1), 50.0, 1e-6);
  EXPECT_EQ(res.deadline_misses, 0);
}

TEST(Sim, RoundRobinCoreAssignment) {
  auto cfg = make_cfg(0.0, 4.0, 0.0);
  cfg.num_cores = 2;
  TaskSet ts;
  for (int i = 0; i < 4; ++i) ts.add(task(i, 0.1 * i, 0.1 * i + 1.0, 10.0));
  RunNowPolicy pol;
  const auto res = simulate(ts, cfg, pol);
  // Cores alternate 0,1,0,1 in arrival order.
  std::map<int, int> core_of;
  for (const auto& seg : res.schedule.segments()) {
    core_of[seg.task_id] = seg.core;
  }
  EXPECT_EQ(core_of[0], 0);
  EXPECT_EQ(core_of[1], 1);
  EXPECT_EQ(core_of[2], 0);
  EXPECT_EQ(core_of[3], 1);
}

TEST(Sim, UnfinishedTasksCounted) {
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 100.0));
  ts.add(task(1, 0.2, 1.2, 100.0));
  LazyPolicy pol;
  const auto res = simulate(ts, make_cfg(0.0, 4.0, 0.0), pol);
  EXPECT_EQ(res.unfinished, 2);
  EXPECT_EQ(res.deadline_misses, 2);
  EXPECT_TRUE(res.schedule.empty());
}

TEST(Sim, HorizonCoversDeadlinesAndSegments) {
  TaskSet ts;
  ts.add(task(0, 0.5, 3.0, 10.0));
  RunNowPolicy pol;
  const auto res = simulate(ts, make_cfg(0.0, 4.0, 0.0), pol);
  EXPECT_DOUBLE_EQ(res.horizon_lo, 0.5);
  EXPECT_GE(res.horizon_hi, 3.0);
}

TEST(Sim, SimultaneousArrivalsSingleReplan) {
  TaskSet ts;
  ts.add(task(0, 1.0, 2.0, 10.0));
  ts.add(task(1, 1.0, 2.5, 10.0));
  RunNowPolicy pol;
  const auto res = simulate(ts, make_cfg(0.0, 4.0, 0.0), pol);
  EXPECT_EQ(res.replans, 1);
  EXPECT_EQ(res.unfinished, 0);
}

TEST(Sim, ZeroWorkTasksAreNotPending) {
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 0.0));
  RunNowPolicy pol;
  const auto res = simulate(ts, make_cfg(0.0, 4.0, 0.0), pol);
  EXPECT_EQ(res.unfinished, 0);
  EXPECT_EQ(res.deadline_misses, 0);
  EXPECT_TRUE(res.schedule.empty());
}

TEST(Sim, NanWorkTaskNeverRunsAndMisses) {
  // TaskSet::validate() lets a NaN work through. Such a task never joins
  // the pending set, so it never finishes: both loops count it missed,
  // though not unfinished.
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 10.0));
  ts.add(task(1, 0.2, 1.2, std::nan("")));
  ASSERT_EQ(ts.validate(), "");
  RunNowPolicy pol;
  const auto cfg = make_cfg(0.0, 4.0, 0.0);
  for (const SimResult& res :
       {simulate(ts, cfg, pol), simulate_with_actuals(ts, cfg, pol, {})}) {
    EXPECT_EQ(res.unfinished, 0);
    EXPECT_EQ(res.deadline_misses, 1);
  }
}

TEST(Sim, EmptyTaskSet) {
  RunNowPolicy pol;
  const auto res = simulate(TaskSet{}, make_cfg(0.0, 4.0, 0.0), pol);
  EXPECT_TRUE(res.schedule.empty());
  EXPECT_EQ(res.replans, 0);
}

}  // namespace
}  // namespace sdem
