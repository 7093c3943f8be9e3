#include "core/block_context.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <limits>

#include "support/numeric.hpp"

namespace sdem {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Same relative slack block_energy_at grants optima sitting exactly on
/// the s_up boundary, so feasibility decisions cannot flip between the
/// fast and the exact path.
constexpr double kBlockUpSlack = 1.0 + 1e-9;

/// W^(1-lambda), pow-free for λ ∈ {2, 3}.
inline double window_power(double w_pos, double lambda) {
  if (lambda == 3.0) return 1.0 / (w_pos * w_pos);
  if (lambda == 2.0) return 1.0 / w_pos;
  return std::pow(w_pos, 1.0 - lambda);
}

std::atomic<bool> g_cross_check{false};
std::atomic<std::uint64_t> g_probes{0};
std::atomic<std::uint64_t> g_failures{0};

}  // namespace

void BlockContext::set_cross_check(bool on) {
  g_cross_check.store(on, std::memory_order_relaxed);
}
bool BlockContext::cross_check() {
  return g_cross_check.load(std::memory_order_relaxed);
}
std::uint64_t BlockContext::cross_check_probes() {
  return g_probes.load(std::memory_order_relaxed);
}
std::uint64_t BlockContext::cross_check_failures() {
  return g_failures.load(std::memory_order_relaxed);
}
void BlockContext::reset_cross_check_counters() {
  g_probes.store(0, std::memory_order_relaxed);
  g_failures.store(0, std::memory_order_relaxed);
}

BlockContext::BlockContext(const SystemConfig& cfg) : cfg_(cfg) {
  alpha_ = cfg_.core.alpha;
  alpha_m_ = cfg_.memory.alpha_m;
  lambda_ = cfg_.core.lambda;
  s_m_raw_ = cfg_.core.critical_speed_raw();  // one pow per context, not per probe
  s_up_ = cfg_.core.max_speed();
  // Lower-bound pruning needs each lane's energy nonincreasing in its
  // window, i.e. the fill-regime curve alpha*W + beta*w^λ*W^(1-λ) must have
  // its stationary point exactly at the race boundary (the definition of
  // the critical speed) — true for the physical parameter range below.
  can_prune_ = alpha_ >= 0.0 && alpha_m_ >= 0.0 && lambda_ > 1.0 &&
               cfg_.core.beta >= 0.0;
  pref_efull_.push_back(0.0);
}

void BlockContext::reset() {
  tasks_.clear();
  pr_.clear();
  pd_.clear();
  pw_.clear();
  pq_.clear();
  pwpow_.clear();
  pwrace_.clear();
  perace_.clear();
  peup_.clear();
  pefull_.clear();
  pref_efull_.assign(1, 0.0);
  nr_.clear();
  nd_.clear();
  nq_.clear();
  sb_.clear();
  eb_.clear();
  ecur_ = 0;
  sorted_ = true;
  infeasible_ = false;
}

// sigma = min(max(s_m, w/W), s_up). The regime tests are in multiplied
// form (w ⋚ s·W rather than w/W ⋚ s): the race regime — where
// golden-section probes spend most of their iterations — then needs no
// division at all. The two forms can only disagree when w/W rounds onto
// the regime boundary, where the energy curve is continuous (race and fill
// values meet at the knee), so a flip would be ulp-sized; the golden-file
// and fast-vs-reference tests pin that none occurs.
inline double BlockContext::lane_energy(const Lane& l, double window) const {
  if (!(window > 0.0)) return kInf;
  if (l.w < s_m_raw_ * window) {  // race regime: sigma pins at min(s_m, s_up)
    if (l.q > window * kBlockUpSlack) return kInf;
    return l.e_race;
  }
  if (l.w > s_up_ * window) {  // clamped at s_up (feasible in the slack sliver)
    if (l.q > window * kBlockUpSlack) return kInf;
    return l.e_up;
  }
  // Fill regime: exec_energy(w, w/W) = alpha*W + beta*w^lambda*W^(1-lambda).
  return alpha_ * window + l.wpow * window_power(window, lambda_);
}

inline BlockContext::Lane BlockContext::lane(std::size_t i,
                                             double bound) const {
  return {pw_[i], pq_[i], pwpow_[i], perace_[i], peup_[i], bound};
}

void BlockContext::push_task(const Task& t) {
  if (!tasks_.empty() && (t.release < pr_.back() || t.deadline < pd_.back())) {
    sorted_ = false;  // not agreeable deadline order: solve() falls back
  }
  tasks_.push_back(t);

  double q = 0.0, wpow = 0.0, w_race = 0.0, e_race = 0.0, e_up = 0.0,
         e_full = 0.0;
  if (t.work > 0.0) {
    q = std::isfinite(s_up_) ? t.work / s_up_ : 0.0;
    wpow = cfg_.core.beta * std::pow(t.work, lambda_);
    const double c = std::min(s_m_raw_, s_up_);
    w_race = c > 0.0 ? t.work / c : kInf;
    e_race = cfg_.core.exec_energy(t.work, c);
    e_up = std::isfinite(s_up_) ? cfg_.core.exec_energy(t.work, s_up_) : kInf;
    e_full = lane_energy({t.work, q, wpow, e_race, e_up, 0.0},
                         t.deadline - t.release);
    if (!std::isfinite(e_full)) infeasible_ = true;
    nr_.push_back(t.release);
    nd_.push_back(t.deadline);
    // Slacked copy for the feasibility geometry: lane_energy keeps
    // windows down to q / kBlockUpSlack finite, so feasible_e_min/
    // feasible_s_max must accept them too, or a boundary-tight task
    // collapses every box to its corners.
    nq_.push_back(q / kBlockUpSlack);
  }
  pr_.push_back(t.release);
  pd_.push_back(t.deadline);
  pw_.push_back(t.work);
  pq_.push_back(q);
  pwpow_.push_back(wpow);
  pwrace_.push_back(w_race);
  perace_.push_back(e_race);
  peup_.push_back(e_up);
  pefull_.push_back(e_full);
  pref_efull_.push_back(pref_efull_.back() + e_full);

  if (tasks_.size() == 1) {
    r_min_ = t.release;
    d_min_ = t.deadline;
    r_max_ = t.release;
    d_max_ = t.deadline;
    sb_.assign({r_min_, d_min_});
    return;
  }
  r_min_ = std::min(r_min_, t.release);
  d_min_ = std::min(d_min_, t.deadline);
  r_max_ = std::max(r_max_, t.release);
  d_max_ = std::max(d_max_, t.deadline);
  if (sorted_) {
    // Releases arrive non-decreasing, so the inner s' breakpoints stay
    // sorted by appending just before the trailing d_min.
    const double prev = sb_[sb_.size() - 2];
    if (t.release > prev && t.release < d_min_) {
      sb_.insert(sb_.end() - 1, t.release);
    }
  }
}

#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline)) inline
#endif
double BlockContext::eval_box(double s, double e) const {
  ++obs_probes_;
  double energy = alpha_m_ * (e - s) + const_energy_;
  // Left, right, coupled: the segments add in task order, so the sum is
  // bit-identical to per-task accumulation.
  const std::vector<Lane>& L = lanes_;
  const std::size_t n = L.size(), nl = nleft_, nlr = nleft_ + nright_;
  for (std::size_t i = 0; i < nl; ++i) {
    energy += lane_energy(L[i], L[i].bound - s);  // d - s'
  }
  for (std::size_t i = nl; i < nlr; ++i) {
    energy += lane_energy(L[i], e - L[i].bound);  // e' - r
  }
  for (std::size_t i = nlr; i < n; ++i) {
    energy += lane_energy(L[i], e - s);  // e' - s'
  }
  if (g_cross_check.load(std::memory_order_relaxed)) audit_probe(s, e, energy);
  return std::isfinite(energy) ? energy : kInf;
}

void BlockContext::prime_fixed_left(double s) const {
  for (std::size_t i = 0; i < nleft_; ++i) {
    fixv_[i] = lane_energy(lanes_[i], lanes_[i].bound - s);
  }
}

void BlockContext::prime_fixed_right(double e) const {
  for (std::size_t i = nleft_; i < nleft_ + nright_; ++i) {
    fixv_[i] = lane_energy(lanes_[i], e - lanes_[i].bound);
  }
}

#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline)) inline
#endif
double BlockContext::eval_box_fixed_s(double s, double e) const {
  ++obs_probes_;
  double energy = alpha_m_ * (e - s) + const_energy_;
  const std::vector<Lane>& L = lanes_;
  const std::size_t n = L.size(), nl = nleft_, nlr = nleft_ + nright_;
  const double* fix = fixv_.data();
  for (std::size_t i = 0; i < nl; ++i) energy += fix[i];  // primed at this s
  for (std::size_t i = nl; i < nlr; ++i) {
    energy += lane_energy(L[i], e - L[i].bound);
  }
  for (std::size_t i = nlr; i < n; ++i) energy += lane_energy(L[i], e - s);
  if (g_cross_check.load(std::memory_order_relaxed)) audit_probe(s, e, energy);
  return std::isfinite(energy) ? energy : kInf;
}

#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline)) inline
#endif
double BlockContext::eval_box_fixed_e(double s, double e) const {
  ++obs_probes_;
  double energy = alpha_m_ * (e - s) + const_energy_;
  const std::vector<Lane>& L = lanes_;
  const std::size_t n = L.size(), nl = nleft_, nlr = nleft_ + nright_;
  const double* fix = fixv_.data();
  for (std::size_t i = 0; i < nl; ++i) {
    energy += lane_energy(L[i], L[i].bound - s);
  }
  for (std::size_t i = nl; i < nlr; ++i) energy += fix[i];  // primed at e
  for (std::size_t i = nlr; i < n; ++i) energy += lane_energy(L[i], e - s);
  if (g_cross_check.load(std::memory_order_relaxed)) audit_probe(s, e, energy);
  return std::isfinite(energy) ? energy : kInf;
}

// Out of line (and kept off the inlining path): the audit body is an order
// of magnitude bigger than the probe itself, and folding it into eval_box
// pushes the hot function past the inliner's size budget — gprof shows the
// probe then stops inlining into minimize_box's line searches.
void BlockContext::audit_probe(double s, double e, double energy) const {
  g_probes.fetch_add(1, std::memory_order_relaxed);
  SDEM_OBS_INC("block/cross_check_probes");
  const double exact = block_energy_at(tasks_, cfg_, s, e);
  const bool fast_inf = !std::isfinite(energy);
  const bool exact_inf = !std::isfinite(exact);
  const bool ok =
      fast_inf == exact_inf &&
      (fast_inf || std::abs(energy - exact) <=
                       1e-9 * std::max({1.0, std::abs(energy), std::abs(exact)}));
  if (!ok) {
    g_failures.fetch_add(1, std::memory_order_relaxed);
    SDEM_OBS_INC("block/cross_check_failures");
    assert(false && "BlockContext fast probe diverged from block_energy_at");
  }
}

bool BlockContext::setup_box(double s_lo, double s_hi, double e_lo,
                             double e_hi) {
  lanes_.clear();
  ctmp_.clear();
  nleft_ = nright_ = 0;
  const_energy_ = 0.0;
  box_floor_ = 0.0;
  // Feasibility geometry of the dynamic lanes, for the lower bound's memory
  // term: a finite probe needs window*slack >= q per lane, so left lanes cap
  // s' at d - q/slack, right lanes floor e' at r + q/slack, and coupled
  // lanes floor e' - s' directly. Ulp-level rounding slop against
  // lane_energy's own boundary test is absorbed by the 1e-12 prune shave.
  double s_cap = s_hi;
  double e_floor = e_lo;
  double w_floor = 0.0;
  constexpr double inv_slack = 1.0 / kBlockUpSlack;

  const std::size_t n = pr_.size();
  // Boxes are bounded by breakpoints, so no release sits strictly inside
  // (s_lo, s_hi) and no deadline strictly inside (e_lo, e_hi): the window
  // classes are exact and, in agreeable order, contiguous index ranges.
  const std::size_t a =
      std::upper_bound(pr_.begin(), pr_.end(), s_lo) - pr_.begin();
  const std::size_t c =
      std::upper_bound(pd_.begin(), pd_.end(), e_lo) - pd_.begin();

  // Each class's feasibility probe sits at the lane's maximal window over
  // the box. A lane's energy is nonincreasing in its window (inf below the
  // q/slack feasibility knee, then the constant clamp energy, then the
  // decreasing fill curve, then the constant race energy), so that probe
  // value is also the lane's exact minimum over the box — accumulated into
  // box_floor_ as the lower bound solve() prunes with.
  const std::size_t left_end = std::min(a, c);
  for (std::size_t i = 0; i < left_end; ++i) {  // W = d - s'
    if (pw_[i] <= 0.0) continue;
    const Lane l = lane(i, pd_[i]);
    const double v = lane_energy(l, pd_[i] - s_lo);
    if (!std::isfinite(v)) return false;  // box infeasible
    if (pd_[i] - s_hi >= pwrace_[i]) {
      const_energy_ += perace_[i];  // pinned at the race speed across the box
    } else {
      lanes_.push_back(l);
      box_floor_ += v;
      s_cap = std::min(s_cap, pd_[i] - pq_[i] * inv_slack);
    }
  }
  nleft_ = lanes_.size();
  if (a <= c) {
    // Unclipped middle class: full windows, one subtraction via prefix sums.
    const_energy_ += pref_efull_[c] - pref_efull_[a];
  } else {
    // Staged in ctmp_: coupled lanes accumulate after the right segment in
    // eval_box, but the const_energy_ folds must keep this loop order.
    for (std::size_t i = c; i < a; ++i) {  // both-sides-clipped: W = e' - s'
      if (pw_[i] <= 0.0) continue;
      const Lane l = lane(i, 0.0);
      const double v = lane_energy(l, e_hi - s_lo);
      if (!std::isfinite(v)) return false;
      if (e_lo - s_hi >= pwrace_[i]) {
        const_energy_ += perace_[i];
      } else {
        ctmp_.push_back(l);
        box_floor_ += v;
        w_floor = std::max(w_floor, pq_[i] * inv_slack);
      }
    }
  }
  for (std::size_t i = std::max(a, c); i < n; ++i) {  // W = e' - r
    if (pw_[i] <= 0.0) continue;
    const Lane l = lane(i, pr_[i]);
    const double v = lane_energy(l, e_hi - pr_[i]);
    if (!std::isfinite(v)) return false;
    if (e_lo - pr_[i] >= pwrace_[i]) {
      const_energy_ += perace_[i];
    } else {
      lanes_.push_back(l);
      box_floor_ += v;
      e_floor = std::max(e_floor, pr_[i] + pq_[i] * inv_slack);
    }
  }
  nright_ = lanes_.size() - nleft_;
  lanes_.insert(lanes_.end(), ctmp_.begin(), ctmp_.end());
  box_mem_floor_ = std::max({0.0, e_floor - s_cap, w_floor});
  return true;
}

double BlockContext::feasible_e_min(double s) const {
  double v = s;
  for (std::size_t i = 0; i < nr_.size(); ++i) {
    const double x = std::max(s, nr_[i]) + nq_[i];
    if (x > nd_[i]) return kInf;
    v = std::max(v, x);
  }
  return v;
}

double BlockContext::feasible_s_max(double e) const {
  double v = e;
  for (std::size_t i = 0; i < nr_.size(); ++i) {
    if (std::min(e, nd_[i]) - nr_[i] < nq_[i]) return -kInf;
    v = std::min(v, std::max(nr_[i], std::min(e, nd_[i]) - nq_[i]));
  }
  return v;
}

BoxMin BlockContext::minimize_box(double s_lo, double s_hi, double e_lo,
                                  double e_hi) const {
  // minimize_in_box's alternating line searches + diagonal escape, with the
  // box-specialized evaluator and the block-level feasibility arrays. The
  // alternation stops at its noise floor: the first round that fails to
  // strictly improve the incumbent ends the box, so (s, e) always sits at
  // the incumbent and a stalled box stops re-probing the same rounding
  // noise. The coordinate test stays as a second exit, so no box runs more
  // rounds than minimize_in_box's loop would.
  BoxMin out;
  double s = s_lo, e = e_hi;  // maximal windows: feasible if anything is
  double val = eval_box(s, e);
  if (!std::isfinite(val)) return out;
  out.feasible = true;
  out.s = s;
  out.e = e;
  out.value = val;

  for (int round = 0; round < 64; ++round) {
    ++obs_rounds_;
    const double elo = std::max({e_lo, s, feasible_e_min(s)});
    if (elo > e_hi) break;
    // The e-line search holds s fixed, so the left lanes' windows — and
    // values — are constants of the whole search: prime them once and let
    // the probe re-add the identical doubles instead of re-deriving them.
    prime_fixed_left(s);
    const double new_e = golden_min_t(
        [&](double y) { return eval_box_fixed_s(s, y); }, elo, e_hi, 1e-12);
    const double shi = std::min({s_hi, new_e, feasible_s_max(new_e)});
    if (shi < s_lo) break;
    prime_fixed_right(new_e);  // ditto: e fixed pins the right lanes
    const double new_s = golden_min_t(
        [&](double x) { return eval_box_fixed_e(x, new_e); }, s_lo, shi,
        1e-12);
    const double t_lo = std::max(s_lo - new_s, e_lo - new_e);
    const double t_hi = std::min(s_hi - new_s, e_hi - new_e);
    double t = 0.0;
    if (t_hi > t_lo) {
      // No segment is pinned on the diagonal: s and e move together and
      // even e' - s' changes bitwise ((e+dt) - (s+dt) != e - s in floating
      // point), so the full evaluator runs.
      t = golden_min_t(
          [&](double dt) { return eval_box(new_s + dt, new_e + dt); }, t_lo,
          t_hi, 1e-12);
      if (!std::isfinite(eval_box(new_s + t, new_e + t))) t = 0.0;
    }
    const double cand_s = new_s + t;
    const double cand_e = new_e + t;
    const double cand = eval_box(cand_s, cand_e);
    if (!(std::isfinite(cand) && cand < out.value)) break;  // noise floor
    const bool converged =
        std::abs(cand_s - s) < 1e-13 * std::max(1.0, std::abs(s)) &&
        std::abs(cand_e - e) < 1e-13 * std::max(1.0, std::abs(e));
    s = cand_s;
    e = cand_e;
    out.value = cand;
    out.s = s;
    out.e = e;
    if (converged) break;
  }
  return out;
}

void BlockContext::build_e_breakpoints() {
  eb_.clear();
  eb_.push_back(r_max_);
  while (ecur_ < pd_.size() && pd_[ecur_] <= r_max_) ++ecur_;
  for (std::size_t j = ecur_; j < pd_.size(); ++j) {
    const double d = pd_[j];
    if (d >= d_max_) break;  // deadlines are sorted; the rest tie with d_max
    if (d > eb_.back()) eb_.push_back(d);
  }
  eb_.push_back(d_max_);
}

BlockSolution BlockContext::solve_fallback() const {
  const BlockResult r = solve_block_reference(tasks_, cfg_);
  BlockSolution out;
  out.feasible = r.feasible;
  out.s = r.s;
  out.e = r.e;
  out.energy = r.energy;
  return out;
}

BlockSolution BlockContext::solve() {
  BlockSolution out;
  if (tasks_.empty() || infeasible_) return out;
  if (!sorted_) {
    SDEM_OBS_INC("block/fallback_solves");
    return solve_fallback();
  }

  build_e_breakpoints();
  fixv_.resize(pr_.size());

  std::uint64_t boxes = 0;
  std::uint64_t boxes_pruned = 0;
  std::uint64_t boxes_lb_pruned = 0;
  std::uint64_t cls_left = 0;
  std::uint64_t cls_right = 0;
  std::uint64_t cls_coupled = 0;
  std::uint64_t cls_const = 0;
  double best = kInf;
  double best_s = r_min_, best_e = d_max_;
  // Pass 1: set up every box once to learn its exact lower bound — the
  // memory term at its corner minimum plus the constant fold plus each
  // dynamic lane's maximal-window value (the lane's exact box minimum, see
  // setup_box). Infeasible boxes drop out here.
  cand_.clear();
  for (std::size_t si = 0; si + 1 < sb_.size(); ++si) {
    for (std::size_t ei = 0; ei + 1 < eb_.size(); ++ei) {
      const double s_lo = sb_[si], s_hi = sb_[si + 1];
      const double e_lo = eb_[ei], e_hi = eb_[ei + 1];
      if (e_hi <= s_lo) continue;  // would force e' <= s'
      if (!setup_box(s_lo, s_hi, e_lo, e_hi)) {
        ++boxes_pruned;
        continue;  // pruned: infeasible
      }
      // lb: the memory term at the least feasible e' - s' (setup_box folds
      // the box corner and the lanes' q/slack feasibility constraints into
      // box_mem_floor_) plus the constant fold plus the lanes' exact box
      // minima. ub: the corner value eval_box(s_lo, e_hi) — every term sits
      // at its box minimum except the memory one, which sits at its max.
      const double lb =
          alpha_m_ * box_mem_floor_ + const_energy_ + box_floor_;
      const double ub =
          alpha_m_ * (e_hi - s_lo) + const_energy_ + box_floor_;
      cand_.push_back({lb, ub, static_cast<std::uint32_t>(si),
                       static_cast<std::uint32_t>(ei)});
    }
  }
  // Pass 2: best-first branch and bound. With the bounds sorted ascending,
  // the first box whose bound — minus a 1e-12 relative shave for the
  // reassociation noise between the bound's sum and eval_box's
  // accumulation order — fails to strictly beat the best value found so
  // far ends the scan: every later box is bounded even higher. The search
  // ORDER must not leak into the result, though: distinct (s', e') can tie
  // in energy bit-for-bit (flat landscapes under degenerate powers), and
  // the seed's row-major scan resolves such ties by first arrival. So this
  // pass only records the searched boxes' minima, and the incumbent fold
  // below replays them in enumeration order with the original strict `<`.
  // Skipped boxes cannot affect that fold: their probes sit above lb minus
  // a few ulp of reassociation noise, and the 1e-12 shave is orders of
  // magnitude wider, so every skipped box stays strictly above the final
  // best — bit-identical results, box count independent. Exotic parameter
  // sets (can_prune_ false: the monotone-lane argument doesn't hold) keep
  // the enumeration order and search everything.
  if (can_prune_) {
    std::stable_sort(cand_.begin(), cand_.end(),
                     [](const BoxCand& x, const BoxCand& y) {
                       return x.lb < y.lb;
                     });
  }
  searched_.clear();
  double best_seen = kInf;  // value-only incumbent for the stop test
  auto search_box = [&](const BoxCand& c) {
    const double s_lo = sb_[c.si], s_hi = sb_[c.si + 1];
    const double e_lo = eb_[c.ei], e_hi = eb_[c.ei + 1];
    setup_box(s_lo, s_hi, e_lo, e_hi);  // feasible in pass 1, so again here
    ++boxes;
    cls_left += nleft_;
    cls_right += nright_;
    cls_coupled += lanes_.size() - nleft_ - nright_;
    cls_const += nr_.size() - lanes_.size();
    const BoxMin m = minimize_box(s_lo, s_hi, e_lo, e_hi);
    if (m.feasible) {
      best_seen = std::min(best_seen, m.value);
      searched_.push_back({c.si, c.ei, m});
    }
  };
  // Seed the incumbent from the box with the least corner value: that
  // corner is minimize_box's first probe, so searching this box first costs
  // nothing extra, and it usually holds the optimum — the sorted scan below
  // then stops at its very first candidate. Searching an extra box is
  // always fold-safe (the fold only gains strictly-better-or-tied entries).
  std::size_t first = cand_.size();
  if (can_prune_ && !cand_.empty()) {
    first = 0;
    for (std::size_t k = 1; k < cand_.size(); ++k) {
      if (cand_[k].ub < cand_[first].ub) first = k;
    }
    search_box(cand_[first]);
  }
  for (std::size_t k = 0; k < cand_.size(); ++k) {
    if (k == first) continue;
    const BoxCand& c = cand_[k];
    if (can_prune_ && c.lb - 1e-12 * std::abs(c.lb) >= best_seen) {
      boxes_lb_pruned += cand_.size() - k - (first > k ? 1 : 0);
      break;
    }
    search_box(c);
  }
  std::sort(searched_.begin(), searched_.end(),
            [](const SearchedBox& x, const SearchedBox& y) {
              return x.si != y.si ? x.si < y.si : x.ei < y.ei;
            });
  for (const SearchedBox& sbx : searched_) {
    if (sbx.m.value < best) {
      best = sbx.m.value;
      best_s = sbx.m.s;
      best_e = sbx.m.e;
    }
  }
  SDEM_OBS_INC("block/solves");
  SDEM_OBS_COUNT("block/boxes_opened", boxes);
  SDEM_OBS_COUNT("block/boxes_pruned_infeasible", boxes_pruned);
  SDEM_OBS_COUNT("block/boxes_pruned_lower_bound", boxes_lb_pruned);
  SDEM_OBS_COUNT("block/box_tasks_const", cls_const);
  SDEM_OBS_COUNT("block/box_tasks_left_clipped", cls_left);
  SDEM_OBS_COUNT("block/box_tasks_right_clipped", cls_right);
  SDEM_OBS_COUNT("block/box_tasks_coupled", cls_coupled);
  SDEM_OBS_COUNT("block/probes", obs_probes_);
  SDEM_OBS_COUNT("block/search_rounds", obs_rounds_);
  obs_probes_ = 0;
  obs_rounds_ = 0;
  if (!std::isfinite(best)) return out;
  out.feasible = true;
  out.s = best_s;
  out.e = best_e;
  out.energy = best;
  return out;
}

BlockResult BlockContext::solve_full() {
  if (!sorted_) return solve_block_reference(tasks_, cfg_);
  const BlockSolution sol = solve();
  BlockResult out;
  if (!sol.feasible) return out;
  out.feasible = true;
  out.s = sol.s;
  out.e = sol.e;
  out.energy = sol.energy;
  out.placements = block_placements_at(tasks_, cfg_, sol.s, sol.e);
  return out;
}

}  // namespace sdem
