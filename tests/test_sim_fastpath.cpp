// Golden equivalence of the allocation-free online hot path against the
// frozen pre-optimization implementations in sim/sim_reference.*.
//
// The optimized simulate() loop and MbkpPolicy must reproduce the originals
// bit for bit: same replan counts, same miss/unfinished counters, the same
// segments field by field, and energies within 1e-12 relative (they are in
// fact identical once the segments are). The slack-reclamation loop,
// simulate_with_actuals(), has one copy, so there the fast and frozen
// policies are compared through that one loop.
//
// SdemOnPolicy plans every replan with the Section 7 solver, whose exact
// stationary point the frozen policy matches only to a tolerance: its oracle
// golden-searches each piece under transition overheads and solves
// Section 4 without them. A TwinPolicy (testing/oracle_compare.hpp) hands
// every replan to both policies and holds their plans to the contract's
// time tolerance, and the event loop alone is pinned bit for bit by driving
// the frozen loop with the production policies. Any other behavior change
// to the hot path must come with an equally intentional edit here or to the
// reference.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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
/// SDEM-ON pairs, which are compared per replan.
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

/// The paper default has transition overheads (xi_m > 0). The other two
/// have none: there SDEM-ON's Section 7 plans meet the frozen policy's
/// Section 4.2 (alpha > 0) and 4.1 (alpha = 0) plans.
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
    // `run` drives the fast policy, `run_ref` the frozen one: the runs match
    // bit for bit, except that SDEM-ON pairs are compared per replan.
    const auto compare = [&](PolicyPair& p, const auto& run,
                             const auto& run_ref, const std::string& what) {
      if (p.sdem) {
        sdem::testing::TwinPolicy twin(*p.fast, *p.ref);
        (void)run(twin);
        EXPECT_EQ(twin.mismatch(), "") << what;
      } else {
        expect_same_result(run(*p.fast), run_ref(*p.ref), cfg, what);
      }
    };
    for (auto& p : make_pairs()) {
      compare(
          p, [&](OnlinePolicy& pol) { return simulate(ts, cfg, pol); },
          [&](OnlinePolicy& pol) { return simulate_reference(ts, cfg, pol); },
          trace + "/" + cfg_name + "/" + p.label);
    }
    const auto actuals = make_actuals(ts);
    for (bool replan_on_completion : {true, false}) {
      const auto run = [&](OnlinePolicy& pol) {
        return simulate_with_actuals(ts, cfg, pol, actuals,
                                     replan_on_completion);
      };
      for (auto& p : make_pairs()) {
        compare(p, run, run,
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

TEST(SimFastpath, LoopMatchesReferenceUnderProductionPolicies) {
  // The same production policy through simulate() and the frozen
  // simulate_reference() loop: exact, on the paper config whose SDEM-ON
  // replans the fast-vs-frozen policy pairs can only hold to a tolerance.
  auto bounded = SystemConfig::paper_default();
  auto unbounded = bounded;
  unbounded.num_cores = 0;
  const std::pair<std::string, std::function<std::unique_ptr<OnlinePolicy>()>>
      policies[] = {
          {"SDEM-ON", [] { return std::make_unique<SdemOnPolicy>(true); }},
          {"SDEM-ON/eager",
           [] { return std::make_unique<SdemOnPolicy>(false); }},
          {"MBKP", [] { return std::make_unique<MbkpPolicy>(); }},
      };
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const TaskSet ts = make_synthetic(SyntheticParams{}, seed);
    for (const SystemConfig& cfg : {bounded, unbounded}) {
      for (const auto& [label, make] : policies) {
        const auto fast = make();
        const auto ref = make();
        expect_same_result(simulate(ts, cfg, *fast),
                           simulate_reference(ts, cfg, *ref), cfg,
                           "loop/seed-" + std::to_string(seed) + "/" +
                               (cfg.unbounded() ? "unbounded/" : "bounded/") +
                               label);
      }
    }
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

/// SDEM-ON with every segment of its arrival replans `delay` seconds later.
class DelayedSdemOn : public SdemOnPolicy {
 public:
  explicit DelayedSdemOn(double delay) : delay_(delay) {}
  std::vector<Segment> replan(double now,
                              const std::vector<PendingTask>& pending,
                              const SystemConfig& cfg) override {
    auto plan = SdemOnPolicy::replan(now, pending, cfg);
    for (Segment& s : plan) {
      s.start += delay_;
      s.end += delay_;
    }
    return plan;
  }

 private:
  double delay_;
};

TEST(TwinPolicy, FlagsPlansLateByMoreThanTheTimeTolerance) {
  // The per-replan bound, pinned from both sides: plans 2e-8 s late are
  // reported, plans 2e-9 s late are not.
  const auto cfg = SystemConfig::paper_default();
  const TaskSet ts = make_synthetic(SyntheticParams{}, 1);
  for (const auto& [delay, flagged] :
       {std::pair{2e-8, true}, std::pair{2e-9, false}}) {
    DelayedSdemOn fast(delay);
    SdemOnReferencePolicy ref;
    sdem::testing::TwinPolicy twin(fast, ref);
    (void)simulate(ts, cfg, twin);
    EXPECT_EQ(twin.mismatch().empty(), !flagged)
        << "delay " << delay << ": " << twin.mismatch();
  }
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
