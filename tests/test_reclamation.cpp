// Tests for the slack-reclamation simulation (actual < WCET executions).
#include <gtest/gtest.h>

#include "core/online_sdem.hpp"
#include "sched/energy.hpp"
#include "sched/validate.hpp"
#include "sim/event_sim.hpp"
#include "sim/metrics.hpp"
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

std::map<int, double> uniform_fraction(const TaskSet& ts, double f) {
  std::map<int, double> m;
  for (const auto& t : ts.tasks()) m[t.id] = f;
  return m;
}

TEST(Reclamation, FullFractionMatchesPlainSimulation) {
  // At actual/WCET 1.0 with no completion replans the slack driver is
  // simulate(), bit for bit. The second trace is slack_reclamation's seed 3,
  // where ending a piece at `lo + left / speed` rather than at the plan's
  // end moves one segment by an ulp.
  SyntheticParams small;
  small.num_tasks = 40;
  small.max_interarrival = 0.250;
  SyntheticParams bench;
  bench.num_tasks = 120;
  bench.max_interarrival = 0.300;
  const std::pair<TaskSet, SystemConfig> runs[] = {
      {make_synthetic(small, 5), sim_cfg()},
      {make_synthetic(bench, 201), SystemConfig::paper_default()}};
  for (const auto& [ts, cfg] : runs) {
    SdemOnPolicy a, b;
    const auto plain = simulate(ts, cfg, a);
    const auto act =
        simulate_with_actuals(ts, cfg, b, uniform_fraction(ts, 1.0),
                              /*replan_on_completion=*/false);
    EXPECT_EQ(plain.replans, act.replans);
    EXPECT_EQ(plain.deadline_misses, act.deadline_misses);
    EXPECT_EQ(plain.unfinished, act.unfinished);
    EXPECT_EQ(plain.horizon_lo, act.horizon_lo);
    EXPECT_EQ(plain.horizon_hi, act.horizon_hi);
    const auto& ps = plain.schedule.segments();
    const auto& as = act.schedule.segments();
    ASSERT_EQ(ps.size(), as.size());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      EXPECT_EQ(ps[i].task_id, as[i].task_id) << "seg " << i;
      EXPECT_EQ(ps[i].core, as[i].core) << "seg " << i;
      EXPECT_EQ(ps[i].start, as[i].start) << "seg " << i;
      EXPECT_EQ(ps[i].end, as[i].end) << "seg " << i;
      EXPECT_EQ(ps[i].speed, as[i].speed) << "seg " << i;
    }
  }
}

TEST(Reclamation, EarlyCompletionShortensExecution) {
  TaskSet ts;
  ts.add(task(0, 0.0, 0.100, 4.0));
  SdemOnPolicy pol;
  const auto res = simulate_with_actuals(ts, sim_cfg(), pol,
                                         uniform_fraction(ts, 0.5), true);
  EXPECT_EQ(res.deadline_misses, 0);
  EXPECT_EQ(res.unfinished, 0);
  EXPECT_NEAR(res.schedule.task_work(0), 2.0, 1e-6);  // half the WCET ran
}

TEST(Reclamation, ReplanOnCompletionTriggersExtraReplans) {
  SyntheticParams p;
  p.num_tasks = 30;
  p.max_interarrival = 0.200;
  const TaskSet ts = make_synthetic(p, 11);
  SdemOnPolicy a, b;
  const auto with = simulate_with_actuals(ts, sim_cfg(), a,
                                          uniform_fraction(ts, 0.6), true);
  const auto without = simulate_with_actuals(ts, sim_cfg(), b,
                                             uniform_fraction(ts, 0.6), false);
  EXPECT_GT(with.replans, without.replans);
  EXPECT_EQ(with.deadline_misses, 0);
  EXPECT_EQ(without.deadline_misses, 0);
}

TEST(Reclamation, LessActualWorkNeverCostsMore) {
  SyntheticParams p;
  p.num_tasks = 60;
  p.max_interarrival = 0.300;
  const TaskSet ts = make_synthetic(p, 23);
  const auto cfg = sim_cfg();
  double prev = 1e18;
  for (double f : {1.0, 0.8, 0.5, 0.3}) {
    SdemOnPolicy pol;
    const auto sim = simulate_with_actuals(ts, cfg, pol,
                                           uniform_fraction(ts, f), true);
    const auto ev =
        evaluate_policy(sim, cfg, SleepDiscipline::kOptimal, "sdem");
    EXPECT_EQ(ev.deadline_misses, 0) << "f " << f;
    EXPECT_LE(ev.energy.system_total(), prev * (1.0 + 1e-9)) << "f " << f;
    prev = ev.energy.system_total();
  }
}

TEST(Reclamation, MixedFractionsFeasible) {
  SyntheticParams p;
  p.num_tasks = 40;
  p.max_interarrival = 0.200;
  const TaskSet ts = make_synthetic(p, 31);
  std::map<int, double> frac;
  for (const auto& t : ts.tasks()) frac[t.id] = (t.id % 3) * 0.3 + 0.4;
  SdemOnPolicy pol;
  const auto sim = simulate_with_actuals(ts, sim_cfg(), pol, frac, true);
  EXPECT_EQ(sim.unfinished, 0);
  EXPECT_EQ(sim.deadline_misses, 0);
  // Executed work per task equals its actual fraction.
  for (const auto& t : ts.tasks()) {
    EXPECT_NEAR(sim.schedule.task_work(t.id), t.work * frac[t.id],
                1e-6 * t.work)
        << "task " << t.id;
  }
}

TEST(Reclamation, ZeroFractionTasksNeverRun) {
  TaskSet ts;
  ts.add(task(0, 0.0, 0.1, 4.0));
  ts.add(task(1, 0.0, 0.1, 4.0));
  std::map<int, double> frac{{0, 0.0}, {1, 1.0}};
  SdemOnPolicy pol;
  const auto sim = simulate_with_actuals(ts, sim_cfg(), pol, frac, true);
  EXPECT_EQ(sim.schedule.task_work(0), 0.0);
  EXPECT_NEAR(sim.schedule.task_work(1), 4.0, 1e-6);
  EXPECT_EQ(sim.deadline_misses, 0);  // the zero-work task needs no time
}

}  // namespace
}  // namespace sdem
