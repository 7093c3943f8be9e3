// Golden equivalence of the allocation-free online hot path against the
// frozen pre-optimization implementations in sim/sim_reference.*.
//
// The optimized simulate()/simulate_with_actuals() loops and MbkpPolicy must
// reproduce the originals bit for bit, and so must SdemOnPolicy wherever it
// plans with the Section 4 solvers: same replan counts, same miss/unfinished
// counters, the same segments field by field, and energies within 1e-12
// relative (they are in fact identical once the segments are).
//
// Where SdemOnPolicy plans with the Section 7 solver (the `paper` config,
// xi_m > 0) the oracle golden-searches each piece while the solver takes the
// exact stationary point. There the runs are held to the shared contract of
// testing/oracle_compare.hpp with EnergyBound::kWithin. Any other behavior
// change to the hot path must come with an equally intentional edit here or
// to the reference.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "baseline/mbkp.hpp"
#include "core/online_sdem.hpp"
#include "model/power.hpp"
#include "sim/event_sim.hpp"
#include "sim/metrics.hpp"
#include "sim/sim_reference.hpp"
#include "test_util.hpp"
#include "testing/oracle_compare.hpp"
#include "workload/dspstone.hpp"
#include "workload/generator.hpp"

namespace sdem {
namespace {

using test::expect_near_rel;

void expect_same_result(const SimResult& fast, const SimResult& ref,
                        const SystemConfig& cfg, const std::string& what) {
  EXPECT_EQ(fast.replans, ref.replans) << what;
  EXPECT_EQ(fast.deadline_misses, ref.deadline_misses) << what;
  EXPECT_EQ(fast.unfinished, ref.unfinished) << what;
  EXPECT_EQ(fast.horizon_lo, ref.horizon_lo) << what;
  EXPECT_EQ(fast.horizon_hi, ref.horizon_hi) << what;
  const auto& fs = fast.schedule.segments();
  const auto& rs = ref.schedule.segments();
  ASSERT_EQ(fs.size(), rs.size()) << what;
  for (std::size_t i = 0; i < fs.size(); ++i) {
    EXPECT_EQ(fs[i].task_id, rs[i].task_id) << what << " seg " << i;
    EXPECT_EQ(fs[i].core, rs[i].core) << what << " seg " << i;
    EXPECT_EQ(fs[i].start, rs[i].start) << what << " seg " << i;
    EXPECT_EQ(fs[i].end, rs[i].end) << what << " seg " << i;
    EXPECT_EQ(fs[i].speed, rs[i].speed) << what << " seg " << i;
  }
  const auto fe =
      evaluate_policy(fast, cfg, SleepDiscipline::kOptimal, "fast");
  const auto re = evaluate_policy(ref, cfg, SleepDiscipline::kOptimal, "ref");
  expect_near_rel(re.energy.system_total(), fe.energy.system_total(), 1e-12,
                  what.c_str());
  expect_near_rel(re.energy.memory_total(), fe.energy.memory_total(), 1e-12,
                  what.c_str());
}

/// Fast policy + its frozen twin, built fresh per trace. `sdem` marks the
/// SDEM-ON pairs, which reach the Section 7 solver under
/// plans_with_transition() configs.
struct PolicyPair {
  std::string label;
  std::unique_ptr<OnlinePolicy> fast;
  std::unique_ptr<OnlinePolicy> ref;
  bool sdem = false;
};

std::vector<PolicyPair> make_pairs() {
  std::vector<PolicyPair> out;
  out.push_back({"SDEM-ON", std::make_unique<SdemOnPolicy>(true),
                 std::make_unique<SdemOnReferencePolicy>(true), true});
  out.push_back({"SDEM-ON/eager", std::make_unique<SdemOnPolicy>(false),
                 std::make_unique<SdemOnReferencePolicy>(false), true});
  out.push_back({"MBKP", std::make_unique<MbkpPolicy>(),
                 std::make_unique<MbkpReferencePolicy>(), false});
  return out;
}

/// Deterministic early-completion fractions keyed off the task id.
std::map<int, double> make_actuals(const TaskSet& ts) {
  std::map<int, double> f;
  for (const auto& t : ts.tasks()) {
    f[t.id] = 0.35 + 0.05 * static_cast<double>((t.id * 37) % 13);
  }
  return f;
}

/// Paper-default config exercises the transition solver (xi_m > 0); the
/// other two cover the alpha and alpha0 common-release dispatch branches.
std::vector<std::pair<std::string, SystemConfig>> make_cfgs() {
  std::vector<std::pair<std::string, SystemConfig>> out;
  out.emplace_back("paper", SystemConfig::paper_default());
  auto alpha = SystemConfig::paper_default();
  alpha.memory.xi_m = 0.0;
  out.emplace_back("alpha", alpha);
  auto alpha0 = SystemConfig::paper_default_alpha0();
  alpha0.memory.xi_m = 0.0;
  out.emplace_back("alpha0", alpha0);
  return out;
}

void check_trace(const TaskSet& ts, const std::string& trace) {
  for (const auto& [cfg_name, cfg] : make_cfgs()) {
    const bool s7 = plans_with_transition(cfg);
    const auto compare = [&](const PolicyPair& p, const SimResult& fast,
                             const SimResult& ref, const std::string& what) {
      if (p.sdem && s7) {
        EXPECT_EQ(sdem::testing::compare_section7_runs(
                      fast, ref, cfg, sdem::testing::EnergyBound::kWithin),
                  "")
            << what;
      } else {
        expect_same_result(fast, ref, cfg, what);
      }
    };
    for (auto& p : make_pairs()) {
      compare(p, simulate(ts, cfg, *p.fast),
              simulate_reference(ts, cfg, *p.ref),
              trace + "/" + cfg_name + "/" + p.label);
    }
    const auto actuals = make_actuals(ts);
    for (bool replan_on_completion : {true, false}) {
      for (auto& p : make_pairs()) {
        compare(p,
                simulate_with_actuals(ts, cfg, *p.fast, actuals,
                                      replan_on_completion),
                simulate_with_actuals_reference(ts, cfg, *p.ref, actuals,
                                                replan_on_completion),
                trace + "/" + cfg_name + "/" + p.label +
                    (replan_on_completion ? "/roc" : "/no-roc"));
      }
    }
  }
}

TEST(SimFastpath, DspstoneMatchesReference) {
  for (std::uint64_t seed : {1u, 7u}) {
    DspstoneParams p;
    p.num_tasks = 96;
    check_trace(make_dspstone(p, seed), "dspstone-" + std::to_string(seed));
  }
}

TEST(SimFastpath, SyntheticMatchesReference) {
  for (std::uint64_t seed : {3u, 11u}) {
    SyntheticParams p;
    p.num_tasks = 80;
    check_trace(make_synthetic(p, seed), "synthetic-" + std::to_string(seed));
  }
}

TEST(SimFastpath, DuplicateReleaseInstantsMatchReference) {
  // Batched arrivals (several tasks per instant) stress the replan grouping
  // and the pending-order bookkeeping.
  TaskSet ts;
  int id = 0;
  for (int batch = 0; batch < 6; ++batch) {
    const double r = 0.030 * batch;
    for (int k = 0; k < 5; ++k) {
      ts.add(test::task(id++, r, r + 0.040 + 0.007 * k, 2.0 + 0.3 * k));
    }
  }
  check_trace(ts, "batched");
}

TEST(SimFastpath, MbkpResetClearsStaleCoreAssignments) {
  // Two different traces reusing the same task ids through ONE policy
  // object. simulate() resets the policy per run, so the second run must
  // be identical to a fresh policy's; without reset() the first trace's
  // core_of_ map would leak into the second (the original failure mode).
  const auto cfg = SystemConfig::paper_default();
  DspstoneParams p;
  p.num_tasks = 64;
  const auto trace_a = make_dspstone(p, 5);
  SyntheticParams sp;
  sp.num_tasks = 64;
  const auto trace_b = make_synthetic(sp, 5);

  MbkpPolicy reused;
  (void)simulate(trace_a, cfg, reused);
  const auto second = simulate(trace_b, cfg, reused);

  MbkpPolicy fresh;
  const auto expected = simulate(trace_b, cfg, fresh);
  expect_same_result(second, expected, cfg, "mbkp-reset");
}

TEST(SimFastpath, SdemOnResetIsIdempotentAcrossRuns) {
  const auto cfg = SystemConfig::paper_default();
  SyntheticParams sp;
  sp.num_tasks = 64;
  const auto trace_a = make_synthetic(sp, 2);
  const auto trace_b = make_synthetic(sp, 9);

  SdemOnPolicy reused;
  (void)simulate(trace_a, cfg, reused);
  const auto second = simulate(trace_b, cfg, reused);

  SdemOnPolicy fresh;
  const auto expected = simulate(trace_b, cfg, fresh);
  expect_same_result(second, expected, cfg, "sdem-reset");
}

}  // namespace
}  // namespace sdem
