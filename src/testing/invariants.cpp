#include "testing/invariants.hpp"

#include <cmath>
#include <map>
#include <sstream>
#include <utility>

#include "baseline/mbkp.hpp"
#include "core/agreeable.hpp"
#include "core/block_context.hpp"
#include "core/common_release_alpha.hpp"
#include "core/common_release_alpha0.hpp"
#include "core/discrete_solver.hpp"
#include "core/discretize.hpp"
#include "core/lower_bound.hpp"
#include "core/online_sdem.hpp"
#include "core/reference.hpp"
#include "core/transition.hpp"
#include "sched/energy.hpp"
#include "sched/validate.hpp"
#include "sim/event_sim.hpp"
#include "sim/governor.hpp"
#include "sim/metrics.hpp"
#include "sim/sim_reference.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"
#include "testing/gap_reference.hpp"
#include "testing/oracle_compare.hpp"

namespace sdem::testing {
namespace {

// Tolerances and reference sizes of the checks.
constexpr double kPairTol = 1e-9;      ///< equivalent-solver agreement
constexpr double kAccountTol = 1e-7;   ///< analytic vs re-accounted energy
constexpr double kRefTol = 1e-4;       ///< one-sided optimality vs reference
constexpr double kRefLooseTol = 5e-3;  ///< two-sided reference agreement
constexpr std::size_t kRefGrid = 20000;    ///< grid for the 1-D scans
constexpr std::size_t kRefBlockGrid = 60;  ///< grid for agreeable 2-D blocks
constexpr int kMaxRefN = 7;     ///< grid references only for n <= this
constexpr int kMaxCrossN = 14;  ///< cross-solver DP checks only below this

std::string num(double v) { return Json::number_to_string(v); }

double rel_diff(double a, double b) {
  const double scale = std::max({1.0, std::abs(a), std::abs(b)});
  return std::abs(a - b) / scale;
}

class Checker {
 public:
  Checker(const FuzzCase& c, const CheckOptions& opts)
      : c_(c), opts_(opts) {}

  std::vector<Violation> run() {
    check_class();
    if (!out_.empty()) return out_;  // out-of-class cases prove nothing
    switch (c_.model) {
      case ModelClass::kCommonRelease:
        check_common_release();
        break;
      case ModelClass::kAgreeable:
        check_agreeable();
        break;
      case ModelClass::kGeneral:
        check_general();
        break;
      case ModelClass::kSleepLadder:
        check_sleep_ladder();
        break;
    }
    return out_;
  }

 private:
  void add(const std::string& invariant, const std::string& detail) {
    out_.push_back({invariant, detail});
  }

  /// a must not exceed b (relative slack). `what` names the two sides.
  void expect_le(const std::string& invariant, double a, double b, double tol,
                 const std::string& what) {
    const double scale = std::max({1.0, std::abs(a), std::abs(b)});
    if (a > b + tol * scale) {
      add(invariant, what + ": " + num(a) + " > " + num(b) +
                         " (excess " + num(a - b) + ")");
    }
  }

  void expect_close(const std::string& invariant, double a, double b,
                    double tol, const std::string& what) {
    if (rel_diff(a, b) > tol) {
      add(invariant, what + ": " + num(a) + " vs " + num(b) +
                         " (rel " + num(rel_diff(a, b)) + ")");
    }
  }

  // -- shared sub-checks ---------------------------------------------------

  void check_class() {
    const std::string err = c_.tasks.validate();
    if (!err.empty()) {
      add("class:task-set", err);
      return;
    }
    if (c_.tasks.empty()) {
      add("class:task-set", "empty task set");
      return;
    }
    switch (c_.model) {
      case ModelClass::kCommonRelease:
        if (!c_.tasks.is_common_release())
          add("class:model", "case tagged common_release is not");
        break;
      case ModelClass::kAgreeable:
        if (!c_.tasks.is_agreeable())
          add("class:model", "case tagged agreeable is not");
        break;
      case ModelClass::kGeneral:
        break;
      case ModelClass::kSleepLadder:
        if (!c_.has_sleep_ladder()) {
          add("class:model", "case tagged sleep_ladder has no ladder");
        }
        break;
    }
    if (c_.cfg.core.s_up > 0.0 &&
        c_.tasks.max_filled_speed() > c_.cfg.core.s_up * (1.0 + 1e-12)) {
      add("class:feasible", "max filled speed " +
                                num(c_.tasks.max_filled_speed()) +
                                " exceeds s_up " + num(c_.cfg.core.s_up));
    }
  }

  void check_offline_common(const std::string& solver, const OfflineResult& res,
                            bool check_accounting) {
    if (!res.feasible) {
      add("feasible:" + solver, "solver rejected a feasible case");
      return;
    }
    const auto v = validate_schedule(res.schedule, c_.tasks, c_.cfg);
    if (!v.ok) add("validate:" + solver, v.describe());
    if (check_accounting) {
      const auto e = compute_energy(res.schedule, c_.cfg);
      expect_close("accounting:" + solver, res.energy, e.system_total(),
                   kAccountTol, "analytic vs re-accounted energy");
    }
    const auto lb = lower_bound_energy(c_.tasks, c_.cfg);
    expect_le("order:lower-bound:" + solver, lb.total(), res.energy,
              opts_.order_tol, "lower bound vs " + solver + " energy");
  }

  // -- common release ------------------------------------------------------

  void check_common_release() {
    if (!c_.has_overheads()) {
      check_common_release_plain();
    } else {
      check_common_release_transition();
    }
    if (c_.has_ladder() && !c_.has_overheads()) check_discrete();
  }

  void check_common_release_plain() {
    const bool alpha0 = c_.cfg.core.alpha <= 0.0;
    const OfflineResult res =
        alpha0 ? solve_common_release_alpha0(c_.tasks, c_.cfg)
               : solve_common_release_alpha(c_.tasks, c_.cfg);
    const std::string solver = alpha0 ? "cr-alpha0" : "cr-alpha";
    check_offline_common(solver, res, /*check_accounting=*/true);
    if (!res.feasible) return;

    if (alpha0) {
      // Lemma 1 binary search vs the linear Theorem 2 scan.
      const auto bin = solve_common_release_alpha0_binary(c_.tasks, c_.cfg);
      if (bin.feasible != res.feasible) {
        add("pair:binary-vs-scan", "feasibility disagrees");
      } else {
        expect_close("pair:binary-vs-scan", res.energy, bin.energy,
                     kPairTol, "binary-search vs linear-scan energy");
      }
      // The alpha scheme must reduce exactly to 4.1 at alpha == 0.
      const auto red = solve_common_release_alpha(c_.tasks, c_.cfg);
      expect_close("pair:alpha-reduces-to-alpha0", res.energy, red.energy,
                   kPairTol, "section 4.2 at alpha=0 vs section 4.1");
    }

    // The section-7 solver must reduce to section 4 at xi == xi_m == 0.
    const auto tr = solve_common_release_transition(c_.tasks, c_.cfg);
    if (!tr.feasible) {
      add("pair:transition-reduces", "transition solver rejected the case");
    } else {
      expect_close("pair:transition-reduces", res.energy, tr.energy,
                   kPairTol, "section 7 at xi=xi_m=0 vs section 4");
    }

    // Cross-solver: a common-release set is agreeable, and with no block
    // charge (xi_m == 0) both optima coincide.
    if (static_cast<int>(c_.tasks.size()) <= kMaxCrossN) {
      const auto dp = solve_agreeable(c_.tasks, c_.cfg);
      if (!dp.feasible) {
        add("pair:agreeable-on-common-release", "DP rejected the case");
      } else {
        expect_close("pair:agreeable-on-common-release", res.energy, dp.energy,
                     1e-5, "section 4 optimum vs agreeable DP");
      }
    }

    if (opts_.run_reference &&
        static_cast<int>(c_.tasks.size()) <= kMaxRefN) {
      const double ref = reference_common_release(c_.tasks, c_.cfg, kRefGrid);
      expect_le("opt:vs-reference", res.energy, ref, kRefTol,
                "solver energy vs grid reference");
      expect_close("opt:vs-reference-loose", res.energy, ref,
                   kRefLooseTol, "solver vs grid reference");
    }
  }

  void check_common_release_transition() {
    const auto res = solve_common_release_transition(c_.tasks, c_.cfg);
    // Section-7 accounting differs from the horizon-free §3 accounting, so
    // the re-derivation check does not apply; the reference oracle and the
    // ordering invariants carry the weight instead.
    check_offline_common("cr-transition", res, /*check_accounting=*/false);
    if (!res.feasible) return;

    // Scratch-reusing overload is documented bit-identical.
    TransitionWorkspace ws;
    const auto scratch =
        solve_common_release_transition(c_.tasks, c_.cfg, ws);
    if (scratch.feasible != res.feasible ||
        scratch.energy != res.energy ||
        scratch.sleep_time != res.sleep_time) {
      add("pair:transition-scratch-replay",
          "scratch overload differs: energy " + num(scratch.energy) + " vs " +
              num(res.energy));
    }

    // Overheads only add cost relative to the section-4 model.
    auto free_cfg = c_.cfg;
    free_cfg.core.xi = 0.0;
    free_cfg.memory.xi_m = 0.0;
    const OfflineResult base =
        free_cfg.core.alpha > 0.0
            ? solve_common_release_alpha(c_.tasks, free_cfg)
            : solve_common_release_alpha0(c_.tasks, free_cfg);
    if (base.feasible) {
      expect_le("order:transition-monotone", base.energy, res.energy,
                opts_.order_tol, "overhead-free optimum vs section 7 energy");
    }

    if (opts_.run_reference &&
        static_cast<int>(c_.tasks.size()) <= kMaxRefN) {
      const double ref =
          reference_common_release_transition(c_.tasks, c_.cfg, kRefGrid);
      expect_le("opt:vs-reference", res.energy, ref, kRefTol,
                "transition solver energy vs grid reference");
      expect_close("opt:vs-reference-loose", res.energy, ref,
                   kRefLooseTol, "transition solver vs grid reference");
    }
  }

  void check_discrete() {
    const FrequencyLadder ladder(c_.ladder);
    const OfflineResult cont =
        c_.cfg.core.alpha > 0.0 ? solve_common_release_alpha(c_.tasks, c_.cfg)
                                : solve_common_release_alpha0(c_.tasks, c_.cfg);
    const auto aware = solve_common_release_discrete(c_.tasks, c_.cfg, ladder);
    if (!aware.feasible) {
      // The ladder top equals s_up, so every feasible case fits it.
      add("feasible:cr-discrete", "discrete solver rejected the case");
      return;
    }
    const auto v = validate_schedule(aware.schedule, c_.tasks, c_.cfg);
    if (!v.ok) add("validate:cr-discrete", v.describe());
    const auto e = compute_energy(aware.schedule, c_.cfg);
    expect_close("accounting:cr-discrete", aware.energy, e.system_total(),
                 kAccountTol, "analytic vs re-accounted energy");
    if (cont.feasible) {
      expect_le("order:discrete-bracket", cont.energy, aware.energy,
                opts_.order_tol, "continuous optimum vs discrete-aware");
      const auto posthoc = discretize_schedule(cont.schedule, ladder);
      if (posthoc.feasible) {
        const double e_post = system_energy(posthoc.schedule, c_.cfg);
        expect_le("order:discrete-bracket", aware.energy, e_post,
                  opts_.order_tol, "discrete-aware vs post-hoc realization");
      }
    }
  }

  // -- agreeable -----------------------------------------------------------

  void check_agreeable() {
    const auto res = solve_agreeable(c_.tasks, c_.cfg);
    const bool plain_model = c_.cfg.memory.xi_m <= 0.0;
    check_offline_common("agreeable", res, /*check_accounting=*/plain_model);
    if (!res.feasible) return;

    // Incremental block-table DP vs the frozen seed DP.
    const auto seed = solve_agreeable_reference(c_.tasks, c_.cfg);
    if (seed.feasible != res.feasible) {
      add("pair:agreeable-incremental-vs-seed", "feasibility disagrees");
    } else {
      expect_close("pair:agreeable-incremental-vs-seed", res.energy,
                   seed.energy, kPairTol,
                   "incremental DP vs seed DP energy");
    }

    // Audited re-solve: every fast block probe is recomputed with the exact
    // O(k) block_energy_at; a feasibility flip or a > 1e-9 relative energy
    // mismatch counts as a failure.
    BlockContext::reset_cross_check_counters();
    BlockContext::set_cross_check(true);
    const auto audited = solve_agreeable(c_.tasks, c_.cfg);
    BlockContext::set_cross_check(false);
    if (BlockContext::cross_check_failures() != 0) {
      add("block:cross-check",
          std::to_string(BlockContext::cross_check_failures()) + " of " +
              std::to_string(BlockContext::cross_check_probes()) +
              " probes disagree with the exact evaluator");
    }
    if (audited.energy != res.energy) {
      add("block:cross-check",
          "audited solve changed the result: " + num(audited.energy) +
              " vs " + num(res.energy));
    }

    // Row-parallel fill must replay bit-identically.
    if (opts_.pool) {
      const auto par = solve_agreeable(c_.tasks, c_.cfg, opts_.pool);
      if (par.energy != res.energy || par.sleep_time != res.sleep_time ||
          par.case_index != res.case_index ||
          !segments_identical(par.schedule, res.schedule)) {
        add("pair:agreeable-parallel-replay",
            "thread-pool fill differs from serial: energy " +
                num(par.energy) + " vs " + num(res.energy));
      }
    }

    if (opts_.run_reference &&
        static_cast<int>(c_.tasks.size()) <= std::min(kMaxRefN, 6)) {
      const double ref = reference_agreeable(c_.tasks, c_.cfg, kRefBlockGrid);
      expect_le("opt:vs-reference", res.energy, ref, kRefTol,
                "DP energy vs exhaustive-partition reference");
      expect_close("opt:vs-reference-loose", res.energy, ref,
                   kRefLooseTol, "DP vs exhaustive reference");
    }
  }

  // -- general (online simulator) ------------------------------------------

  static bool segments_identical(const Schedule& a, const Schedule& b) {
    const auto& sa = a.segments();
    const auto& sb = b.segments();
    if (sa.size() != sb.size()) return false;
    for (std::size_t i = 0; i < sa.size(); ++i) {
      if (sa[i].task_id != sb[i].task_id || sa[i].core != sb[i].core ||
          sa[i].start != sb[i].start || sa[i].end != sb[i].end ||
          sa[i].speed != sb[i].speed) {
        return false;
      }
    }
    return true;
  }

  /// Does any task need (almost) the full speed cap for its whole window?
  bool boundary_tight() const {
    if (c_.cfg.core.s_up <= 0.0) return false;
    for (const auto& t : c_.tasks.tasks()) {
      const double region = t.deadline - t.release;
      if (region <= 0.0) return true;
      if (t.work >= c_.cfg.core.s_up * region * (1.0 - 1e-9)) return true;
    }
    return false;
  }

  /// Fast simulator/policy vs its frozen twin: bit-exact, except that
  /// SDEM-ON runs planning with the Section 7 solver (`s7`) are held to the
  /// shared tolerance contract of testing/oracle_compare.hpp, never worse
  /// than the oracle in system energy.
  void diff_sim(const std::string& label, const SimResult& fast,
                const SimResult& ref, bool s7) {
    if (s7) {
      const std::string why = compare_section7_runs(
          fast, ref, c_.cfg, EnergyBound::kNeverWorse);
      if (!why.empty()) add("sim:fast-vs-reference:" + label, why);
      return;
    }
    std::ostringstream why;
    if (fast.replans != ref.replans)
      why << " replans " << fast.replans << " vs " << ref.replans << ";";
    if (fast.deadline_misses != ref.deadline_misses)
      why << " misses " << fast.deadline_misses << " vs "
          << ref.deadline_misses << ";";
    if (fast.unfinished != ref.unfinished)
      why << " unfinished " << fast.unfinished << " vs " << ref.unfinished
          << ";";
    if (fast.horizon_lo != ref.horizon_lo || fast.horizon_hi != ref.horizon_hi)
      why << " horizon differs;";
    if (!segments_identical(fast.schedule, ref.schedule))
      why << " segments differ (" << fast.schedule.size() << " vs "
          << ref.schedule.size() << ");";
    if (!why.str().empty()) add("sim:fast-vs-reference:" + label, why.str());
  }

  void check_online_run(const std::string& label, const SimResult& sim,
                        bool guaranteed_feasible) {
    const auto ev =
        evaluate_policy(sim, c_.cfg, SleepDiscipline::kOptimal, label);
    const double total = ev.energy.system_total();
    if (!std::isfinite(total) || total < 0.0) {
      add("sim:energy-finite:" + label, "system energy " + num(total));
      return;
    }
    if (!c_.cfg.unbounded()) return;  // bounded cores may legitimately miss
    if (sim.deadline_misses != 0 || sim.unfinished != 0) {
      // MBKP round-robins within a density class modulo the *instantaneous*
      // pending count, so even unbounded cores can end up sharing — misses
      // are legitimate for such heuristics, a bug for SDEM-ON. And a task
      // that needs exactly s_up for its whole window sits on the feasibility
      // boundary, where rounding across replans can tip either way.
      if (guaranteed_feasible && !boundary_tight()) {
        add("sim:no-miss-unbounded:" + label,
            std::to_string(sim.deadline_misses) + " misses, " +
                std::to_string(sim.unfinished) + " unfinished on unbounded "
                "cores");
      }
      return;
    }
    ValidateOptions vo;
    vo.require_non_migrating = false;  // preemptive replans may split tasks
    const auto v = validate_schedule(sim.schedule, c_.tasks, c_.cfg, vo);
    if (!v.ok) add("validate:sim:" + label, v.describe());

    const auto lb = lower_bound_energy(c_.tasks, c_.cfg);
    expect_le("order:lower-bound:sim:" + label, lb.total(), total,
              opts_.order_tol, "lower bound vs online energy");

    // OPT <= heuristic whenever an offline optimal solver applies and the
    // accounting models coincide (no overheads: idle time is free on both
    // sides, so the wider online horizon adds nothing).
    if (!c_.has_overheads() &&
        static_cast<int>(c_.tasks.size()) <= kMaxCrossN) {
      OfflineResult opt;
      std::string which;
      if (c_.tasks.is_common_release()) {
        opt = c_.cfg.core.alpha > 0.0
                  ? solve_common_release_alpha(c_.tasks, c_.cfg)
                  : solve_common_release_alpha0(c_.tasks, c_.cfg);
        which = "common-release optimum";
      } else if (c_.tasks.is_agreeable()) {
        opt = solve_agreeable(c_.tasks, c_.cfg);
        which = "agreeable DP optimum";
      }
      if (!which.empty() && opt.feasible) {
        expect_le("order:offline-le-online:" + label, opt.energy, total,
                  1e-6, which + " vs " + label + " energy");
      }
    }
  }

  void check_general() {
    struct Pair {
      std::string label;
      SimResult fast;
      SimResult ref;
      bool guaranteed_feasible;
    };
    std::vector<Pair> runs;
    {
      SdemOnPolicy fast(true);
      SdemOnReferencePolicy ref(true);
      runs.push_back({"sdem-on", simulate(c_.tasks, c_.cfg, fast),
                      simulate_reference(c_.tasks, c_.cfg, ref), true});
    }
    {
      SdemOnPolicy fast(false);
      SdemOnReferencePolicy ref(false);
      runs.push_back({"sdem-on-eager", simulate(c_.tasks, c_.cfg, fast),
                      simulate_reference(c_.tasks, c_.cfg, ref), true});
    }
    {
      MbkpPolicy fast;
      MbkpReferencePolicy ref;
      runs.push_back({"mbkp", simulate(c_.tasks, c_.cfg, fast),
                      simulate_reference(c_.tasks, c_.cfg, ref), false});
    }
    const bool s7 = plans_with_transition(c_.cfg);
    for (const auto& r : runs) {
      diff_sim(r.label, r.fast, r.ref, s7 && r.label != "mbkp");
      check_online_run(r.label, r.fast, r.guaranteed_feasible);
    }

    // Slack reclamation: early completions with deterministic fractions.
    {
      std::map<int, double> fractions;
      for (const auto& t : c_.tasks.tasks()) {
        fractions[t.id] = 0.3 + 0.05 * static_cast<double>((t.id * 37) % 14);
      }
      SdemOnPolicy fast(true);
      SdemOnReferencePolicy ref(true);
      const auto f =
          simulate_with_actuals(c_.tasks, c_.cfg, fast, fractions, true);
      const auto r = simulate_with_actuals_reference(c_.tasks, c_.cfg, ref,
                                                     fractions, true);
      diff_sim("sdem-on-actuals", f, r, s7);
    }

    // Accounting theorem: on the same MBKP schedule, sleep-when-it-pays can
    // never cost more than never-sleeping.
    const auto& mbkp_run = runs.back().fast;
    const auto never =
        evaluate_policy(mbkp_run, c_.cfg, SleepDiscipline::kNever, "mbkp");
    const auto opt =
        evaluate_policy(mbkp_run, c_.cfg, SleepDiscipline::kOptimal, "mbkps");
    expect_le("order:mbkps-le-mbkp", opt.energy.system_total(),
              never.energy.system_total(), opts_.order_tol,
              "MBKPS vs MBKP energy");
  }

  // -- sleep ladder (multi-state memory + governor) ------------------------

  /// Internal consistency of one EnergyBreakdown produced by the ladder
  /// accounting path: the rollup fields must equal the per-state sums, and
  /// every per-state row must satisfy its own defining identities.
  void check_ladder_accounting(const std::string& label,
                               const EnergyBreakdown& e,
                               const SleepLadder& ladder) {
    if (static_cast<int>(e.memory_states.size()) != ladder.depth()) {
      add("ladder:accounting:" + label,
          "per-state rows " + std::to_string(e.memory_states.size()) +
              " != ladder depth " + std::to_string(ladder.depth()));
      return;
    }
    double residency = 0.0, transition = 0.0, cycles = 0.0, aborts = 0.0;
    for (int k = 0; k < ladder.depth(); ++k) {
      const auto& ps = e.memory_states[static_cast<std::size_t>(k)];
      const auto& st = ladder.state(k);
      if (ps.sleep_time < 0.0 || ps.cycles < 0.0 || ps.aborts < 0.0) {
        add("ladder:accounting:" + label,
            "negative per-state stats in state " + std::to_string(k));
      }
      expect_close("ladder:accounting:" + label, ps.residency_energy,
                   st.power * ps.sleep_time, kAccountTol,
                   "state " + std::to_string(k) + " residency vs power*time");
      expect_close("ladder:accounting:" + label, ps.transition_energy,
                   st.pair_energy * (ps.cycles + ps.aborts),
                   kAccountTol,
                   "state " + std::to_string(k) + " transition vs pair*cycles");
      residency += ps.residency_energy;
      transition += ps.transition_energy;
      cycles += ps.cycles;
      aborts += ps.aborts;
    }
    expect_close("ladder:accounting:" + label, e.memory_sleep_residency,
                 residency, kAccountTol, "residency rollup");
    expect_close("ladder:accounting:" + label, e.memory_transition, transition,
                 kAccountTol, "transition rollup");
    if (e.memory_sleep_cycles != cycles) {
      add("ladder:accounting:" + label,
          "cycle rollup " + num(e.memory_sleep_cycles) + " != per-state sum " +
              num(cycles));
    }
    if (e.governor_aborts != aborts) {
      add("ladder:accounting:" + label,
          "abort rollup " + num(e.governor_aborts) + " != per-state sum " +
              num(aborts));
    }
    if (!std::isfinite(e.memory_total()) || e.memory_total() < 0.0) {
      add("ladder:accounting:" + label,
          "memory total " + num(e.memory_total()));
    }
  }

  /// The first field where `got` differs bitwise from the frozen
  /// single-state oracle's `ref`; empty when all match.
  static std::string depth1_mismatch(const EnergyBreakdown& ref,
                                     const EnergyBreakdown& got) {
    static constexpr std::pair<const char*, double EnergyBreakdown::*>
        kFields[] = {
            {"core_idle", &EnergyBreakdown::core_idle},
            {"core_transition", &EnergyBreakdown::core_transition},
            {"memory_active", &EnergyBreakdown::memory_active},
            {"memory_idle", &EnergyBreakdown::memory_idle},
            {"memory_transition", &EnergyBreakdown::memory_transition},
            {"memory_sleep_time", &EnergyBreakdown::memory_sleep_time},
            {"memory_sleep_cycles", &EnergyBreakdown::memory_sleep_cycles},
            {"memory_sleep_min", &EnergyBreakdown::memory_sleep_min},
            {"memory_sleep_max", &EnergyBreakdown::memory_sleep_max},
        };
    for (const auto& [name, field] : kFields) {
      if (ref.*field != got.*field) {
        return std::string(name) + " " + num(got.*field) + " vs " +
               num(ref.*field);
      }
    }
    if (ref.system_total() != got.system_total()) {
      return "system total " + num(got.system_total()) + " vs " +
             num(ref.system_total());
    }
    return "";
  }

  void check_sleep_ladder() {
    const SleepLadder& ladder = c_.cfg.memory.ladder;
    const std::string err = ladder.validate(c_.cfg.memory.alpha_m);
    if (!err.empty()) {
      add("ladder:validity", err);
      return;  // a malformed ladder makes the energy checks meaningless
    }

    // All disciplines account the same memory-oblivious MBKP schedule, so
    // every comparison below isolates the gap decision.
    MbkpPolicy policy;
    const auto sim = simulate(c_.tasks, c_.cfg, policy);

    // Depth-1 differential: the gap walk on the paper's single state, as
    // the empty ladder and as SleepLadder::single(alpha_m, xi_m), must
    // reproduce the frozen single-state rule (testing/gap_reference) bit
    // for bit, core gaps included.
    {
      auto empty_cfg = c_.cfg;
      empty_cfg.memory.ladder = SleepLadder();
      auto single_cfg = c_.cfg;
      single_cfg.memory.ladder = SleepLadder::single(c_.cfg.memory.alpha_m,
                                                     c_.cfg.memory.xi_m);
      const std::pair<SleepDiscipline, const char*> disciplines[] = {
          {SleepDiscipline::kNever, "never"},
          {SleepDiscipline::kAlways, "always"},
          {SleepDiscipline::kOptimal, "optimal"}};
      for (const auto& [disc, disc_name] : disciplines) {
        const auto ref = reference_energy(sim.schedule, c_.cfg, disc,
                                          sim.horizon_lo, sim.horizon_hi);
        for (const auto* cfg : {&empty_cfg, &single_cfg}) {
          const auto got = evaluate_policy(sim, *cfg, disc, "s1").energy;
          const std::string diff = depth1_mismatch(ref, got);
          if (!diff.empty()) {
            add("ladder:depth1-differential",
                std::string(cfg == &empty_cfg ? "empty" : "single") +
                    " ladder, " + disc_name +
                    ": diverges from the frozen single-state rule: " + diff);
          }
        }
      }
    }

    // Discipline ordering on the case's own ladder: the clairvoyant per-gap
    // oracle can be beaten by nobody who sees the same gaps.
    const auto never =
        evaluate_policy(sim, c_.cfg, SleepDiscipline::kNever, "ln");
    const auto always =
        evaluate_policy(sim, c_.cfg, SleepDiscipline::kAlways, "la");
    const auto oracle =
        evaluate_policy(sim, c_.cfg, SleepDiscipline::kOptimal, "lo");
    IdleGovernor governor;
    const auto governed = evaluate_policy(
        sim, c_.cfg, SleepDiscipline::kGovernor, "lG", &governor);
    expect_le("ladder:oracle-le-never", oracle.energy.memory_total(),
              never.energy.memory_total(), opts_.order_tol,
              "oracle vs never-sleep memory energy");
    expect_le("ladder:oracle-le-always", oracle.energy.memory_total(),
              always.energy.memory_total(), opts_.order_tol,
              "oracle vs sleep-when-idle memory energy");
    expect_le("ladder:oracle-le-governor", oracle.energy.memory_total(),
              governed.energy.memory_total(), opts_.order_tol,
              "oracle vs governed memory energy");
    check_ladder_accounting("never", never.energy, ladder);
    check_ladder_accounting("always", always.energy, ladder);
    check_ladder_accounting("oracle", oracle.energy, ladder);
    check_ladder_accounting("governor", governed.energy, ladder);
    if (governed.energy.governor_aborts < 0.0 ||
        governed.energy.governor_mispredicts < 0.0) {
      add("ladder:governor-stats", "negative mispredict/abort counters");
    }

    // Monotone depth: each added rung only widens the oracle's choice set,
    // so oracle energy is non-increasing along ladder prefixes.
    double prev = never.energy.memory_total();
    for (int d = 1; d <= ladder.depth(); ++d) {
      auto cfg_d = c_.cfg;
      cfg_d.memory.ladder = ladder.prefix(d);
      const auto ev =
          evaluate_policy(sim, cfg_d, SleepDiscipline::kOptimal, "ld");
      expect_le("ladder:monotone-depth", ev.energy.memory_total(), prev,
                opts_.order_tol,
                "oracle energy at depth " + std::to_string(d) +
                    " vs depth " + std::to_string(d - 1));
      prev = ev.energy.memory_total();
    }
  }

  const FuzzCase& c_;
  const CheckOptions& opts_;
  std::vector<Violation> out_;
};

}  // namespace

std::vector<Violation> check_case(const FuzzCase& c, const CheckOptions& opts) {
  return Checker(c, opts).run();
}

std::string summarize(const std::vector<Violation>& v) {
  std::string out;
  for (const auto& viol : v) {
    if (!out.empty()) out += "; ";
    out += viol.invariant;
  }
  return out;
}

}  // namespace sdem::testing
