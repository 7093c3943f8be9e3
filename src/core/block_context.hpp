// Incremental, cache-friendly block-table solver for the agreeable DP
// (paper §5) — the hot path of the whole reproduction.
//
// The seed implementation re-ran the full single-block pipeline for every
// (p, q) pair of the DP's block table: rebuild the task subset, re-sort the
// release/deadline breakpoints, and evaluate the block objective with an
// O(k) loop whose per-task work recomputes std::pow(alpha/(beta(λ-1)), 1/λ)
// and std::pow(sigma, λ) on every golden-section probe. BlockContext keeps
// one growing block per DP row instead: push_task() extends the block by
// the next deadline-sorted task and maintains, incrementally,
//
//   * the per-task constants every probe needs — beta·w^λ, the race window
//     w / min(s_m, s_up), the race/clamped energies, and the full-window
//     (unclipped) energy — as parallel structure-of-arrays columns,
//   * prefix sums of the full-window energies (so a box's unclipped middle
//     class folds to one subtraction),
//   * the sorted s'/e' breakpoint sets (releases are non-decreasing in
//     agreeable deadline order, so maintenance is append/advance, no sort),
//   * the s_up feasibility data (w / s_up per task) shared by every box's
//     feasible-range clamps, and a block-level infeasibility flag that
//     prunes whole (p, q) pairs before any box is opened.
//
// solve() then scans the same breakpoint boxes as the seed, but each box
// first classifies tasks into {constant window, left-clipped (d - s'),
// right-clipped (e' - r), both-sides-clipped (e' - s')} — contiguous index
// ranges in agreeable order — folds every constant-energy task (unclipped,
// or pinned at the race speed across the whole box) into a single scalar,
// and packs the few remaining "dynamic" tasks into one lane buffer (left,
// right, coupled segments). A probe evaluates each lane's window energy
// (lane_energy, the one statement of the per-task regime rule) and adds the
// values in task order, so a probe's value is bit-for-bit a plain per-task
// sum.
//
// Within a box, minimize_box alternates golden-section line searches over
// e' and s' plus a diagonal step, and stops at the first round that does
// not strictly improve its incumbent: past that the searches only re-probe
// rounding noise. The frozen minimize_in_box runs on to its 1e-13
// coordinate test instead, so a block optimum can sit a few ulps above
// the one that loop reaches (docs/testing.md, "The block-search and
// islands tolerance trade").
//
// Because each lane's energy is nonincreasing in its window, the value at
// the box's maximal windows — already computed by the feasibility check —
// is the lane's exact box minimum, so every feasible box carries an exact
// lower bound before any golden-section probing. solve() exploits this as
// best-first branch and bound: boxes are ranked by bound (stable sort, so
// equal bounds keep the seed's enumeration order) and minimized in that
// order, stopping at the first box whose bound (minus a 1e-12 relative
// shave for reassociation noise) cannot strictly beat the incumbent —
// every box after it is bounded even higher. Skipping those boxes leaves
// the result bit-identical because all incumbent updates are strict `<`;
// in practice the first-ranked box almost always contains the optimum and
// the rest of the table is never probed.
//
// Numerics: the fast evaluator computes algebraically identical energies to
// core/block.hpp's exact block_energy_at (same regime boundaries, same
// s_up feasibility slack), differing only by floating-point reassociation
// (≲1e-12 relative; tests pin ≤1e-9). set_cross_check(true) audits every
// probe against the exact O(k) path; Debug builds also assert on it.
//
// Inputs must be pushed in agreeable deadline order (non-decreasing r and
// d). Anything else trips the sorted-input check and solve() falls back to
// the seed-identical solve_block_reference path, so callers with exotic
// task vectors keep the old behavior.
#pragma once

#include <cstdint>
#include <vector>

#include "core/block.hpp"
#include "model/power.hpp"
#include "model/task.hpp"
#include "obs/obs.hpp"

namespace sdem {

/// Scalar block optimum: what the DP table stores for every (p, q) pair.
/// Placements for the few blocks on the optimal path are reconstructed on
/// demand from (s, e) — see block_placements_at — cutting the DP's memory
/// from O(n³) placement storage to O(n²) scalars.
struct BlockSolution {
  bool feasible = false;
  double s = 0.0;
  double e = 0.0;
  double energy = 0.0;
};

class BlockContext {
 public:
  explicit BlockContext(const SystemConfig& cfg);

  /// Forget every pushed task; keeps the config and scratch capacity.
  void reset();

  /// Extend the block with the next task of the deadline-sorted order.
  void push_task(const Task& t);

  std::size_t size() const { return tasks_.size(); }

  /// True when some pushed task cannot meet w/s_up even in its full region
  /// [r, d] — every block containing it is infeasible, so the caller can
  /// prune the rest of the DP row without opening a single box.
  bool block_infeasible() const { return infeasible_; }

  /// Optimal (s', e', energy) of the current block — the fast path.
  BlockSolution solve();

  /// solve() plus per-task placements (compatibility with solve_block).
  BlockResult solve_full();

  /// Audit mode: every fast probe is recomputed with the exact O(k)
  /// block_energy_at and counted on mismatch (> 1e-9 relative or a
  /// feasibility flip). Global, thread-safe, off by default.
  static void set_cross_check(bool on);
  static bool cross_check();
  static std::uint64_t cross_check_probes();
  static std::uint64_t cross_check_failures();
  static void reset_cross_check_counters();

 private:
  /// One dynamic task of a box: its probe constants (copied from the
  /// per-task columns below) plus `bound`, which is d for the left-clipped
  /// segment (W = d - s') and r for the right-clipped one (W = e' - r); the
  /// both-sides-clipped segment (W = e' - s') ignores it.
  struct Lane {
    double w, q, wpow, e_race, e_up;
    double bound;
  };

  /// One task's energy over one window: the regimes of block.cpp's
  /// task_window_energy with the per-task constants hoisted.
  double lane_energy(const Lane& l, double window) const;
  Lane lane(std::size_t i, double bound) const;  ///< task i's constants
  /// The probe: every lane's energy, added in task order.
  /// Every call site lives in block_context.cpp's line searches, and the
  /// few-lane body must inline into them (it is the whole hot path), so
  /// the definition is marked always_inline there; the slow audit tail
  /// lives out of line in audit_probe.
  double eval_box(double s, double e) const;
  void audit_probe(double s, double e, double energy) const;
  /// Line-search probes: one coordinate is pinned for the whole search, so
  /// the pinned segment's lane values are search constants. prime_* stores
  /// them in fixv_ (the exact doubles the full evaluator would compute) and
  /// the fixed-coordinate probes re-add them in the same chain position —
  /// bit-identical to eval_box, minus the pinned segment's re-derivation.
  void prime_fixed_left(double s) const;
  void prime_fixed_right(double e) const;
  double eval_box_fixed_s(double s, double e) const;
  double eval_box_fixed_e(double s, double e) const;
  bool setup_box(double s_lo, double s_hi, double e_lo, double e_hi);
  BoxMin minimize_box(double s_lo, double s_hi, double e_lo, double e_hi) const;
  double feasible_e_min(double s) const;
  double feasible_s_max(double e) const;
  void build_e_breakpoints();
  BlockSolution solve_fallback() const;

  SystemConfig cfg_;
  double alpha_ = 0.0;
  double alpha_m_ = 0.0;
  double lambda_ = 3.0;
  double s_m_raw_ = 0.0;  ///< hoisted critical_speed_raw (one pow per block row)
  double s_up_ = 0.0;     ///< max_speed() (+inf when unbounded)
  bool can_prune_ = false;  ///< lower-bound box pruning is sound (see solve)

  std::vector<Task> tasks_;  ///< pushed order (exact cross-check, placements)
  // Per-task probe constants as columns, parallel to tasks_ (pushed order):
  // setup_box binary-searches pr_/pd_ and sums prefixes of pefull_.
  std::vector<double> pr_;      ///< release
  std::vector<double> pd_;      ///< deadline
  std::vector<double> pw_;      ///< work
  std::vector<double> pq_;      ///< w / s_up (0 when s_up is unbounded)
  std::vector<double> pwpow_;   ///< beta * w^lambda
  std::vector<double> pwrace_;  ///< w / min(s_m, s_up): window at/above which
                                ///< the speed pins at the clamped race speed
  std::vector<double> perace_;  ///< exec_energy(w, min(s_m, s_up))
  std::vector<double> peup_;    ///< exec_energy(w, s_up) (+inf when unbounded)
  std::vector<double> pefull_;  ///< energy at the maximal window d - r
  std::vector<double> pref_efull_;  ///< pref_efull_[i] = sum e_full of [0, i)
  // s_up feasibility data of every positive-work task, in pushed order —
  // the seed's per-box `needs` rebuild, hoisted to the block.
  std::vector<double> nr_, nd_, nq_;

  bool sorted_ = true;      ///< r and d non-decreasing so far
  bool infeasible_ = false;
  double r_min_ = 0.0, r_max_ = 0.0, d_min_ = 0.0, d_max_ = 0.0;

  std::vector<double> sb_;  ///< s' breakpoints, incremental (append-only)
  std::vector<double> eb_;  ///< e' breakpoints, rebuilt O(k) per solve
  std::size_t ecur_ = 0;    ///< monotone cursor: first deadline > r_max

  // Per-box scratch, reused across boxes and solves (no allocation). All
  // dynamic lanes live in one buffer — segments [0, nleft_),
  // [nleft_, nleft_ + nright_), [nleft_ + nright_, size) hold the left-,
  // right- and both-sides-clipped classes. ctmp_ stages the coupled class
  // during setup_box (its lanes are discovered between the left and right
  // loops but accumulate last).
  std::vector<Lane> lanes_, ctmp_;
  std::size_t nleft_ = 0, nright_ = 0;
  double const_energy_ = 0.0;
  double box_floor_ = 0.0;  ///< exact sum of the dynamic lanes' box minima
  double box_mem_floor_ = 0.0;  ///< least feasible e' - s' over the box
  mutable std::vector<double> fixv_;  ///< pinned-segment values (prime_*)

  /// One feasible breakpoint box of the current solve, ranked by its exact
  /// lower bound for the best-first scan (see solve()). `ub` is the box's
  /// corner value eval_box(s_lo, e_hi) — achieved by minimize_box's first
  /// probe, so the min-ub box is searched first to seed the incumbent.
  struct BoxCand {
    double lb, ub;
    std::uint32_t si, ei;
  };
  /// A searched box's minimum, replayed in enumeration order by solve()'s
  /// incumbent fold so energy ties keep the seed's first-arrival winner.
  struct SearchedBox {
    std::uint32_t si, ei;
    BoxMin m;
  };
  std::vector<BoxCand> cand_;        ///< per-solve scratch
  std::vector<SearchedBox> searched_;  ///< per-solve scratch

  // Probe and search-round tallies for the current solve(), flushed to the
  // obs registry once per solve (mutable: eval_box and minimize_box are
  // const).
  mutable std::uint64_t obs_probes_ = 0;
  mutable std::uint64_t obs_rounds_ = 0;
};

}  // namespace sdem
