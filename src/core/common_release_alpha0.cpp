#include "core/common_release_alpha0.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/common_release_scratch.hpp"
#include "support/numeric.hpp"

namespace sdem {
namespace {

/// Precomputed per-instance state shared by both solver variants. The
/// arrays live in the caller's CommonReleaseScratch so repeated solves (one
/// per replan in the online policy) reuse their capacity instead of
/// reallocating.
struct Instance {
  CommonReleaseScratch* ws = nullptr;
  double release = 0.0;             ///< common release time
  double horizon = 0.0;             ///< |I| = d_n - release
  double alpha_m = 0.0;
  double beta = 0.0;
  double lambda = 0.0;
  double s_up = 0.0;                ///< +inf when unconstrained

  const std::vector<Task>& tasks() const { return ws->sorted; }
  int n() const { return static_cast<int>(ws->sorted.size()); }
};

Instance build_instance(const TaskSet& tasks, const SystemConfig& cfg,
                        CommonReleaseScratch& ws) {
  Instance in;
  in.ws = &ws;
  // Same copy + comparator as TaskSet::sorted_by_deadline, minus the
  // temporary TaskSet.
  ws.sorted.assign(tasks.tasks().begin(), tasks.tasks().end());
  std::sort(ws.sorted.begin(), ws.sorted.end(),
            [](const Task& a, const Task& b) {
              if (a.deadline != b.deadline) return a.deadline < b.deadline;
              if (a.release != b.release) return a.release < b.release;
              return a.id < b.id;
            });
  in.release = ws.sorted.front().release;
  in.alpha_m = cfg.memory.alpha_m;
  in.beta = cfg.core.beta;
  in.lambda = cfg.core.lambda;
  in.s_up = cfg.core.max_speed();

  const int n = in.n();
  ws.d.resize(n + 1);
  ws.delta.resize(n + 1);
  ws.suffix_wl.assign(n + 2, 0.0);
  ws.suffix_wmax.assign(n + 2, 0.0);
  ws.prefix.assign(n + 2, 0.0);

  in.horizon = ws.sorted.back().deadline - in.release;
  for (int i = 1; i <= n; ++i) {
    const Task& t = ws.sorted[i - 1];
    ws.d[i] = t.deadline - in.release;
    ws.delta[i] = in.horizon - ws.d[i];
  }
  for (int i = n; i >= 1; --i) {
    const Task& t = ws.sorted[i - 1];
    ws.suffix_wl[i] = ws.suffix_wl[i + 1] + std::pow(t.work, in.lambda);
    ws.suffix_wmax[i] = std::max(ws.suffix_wmax[i + 1], t.work);
  }
  for (int i = 1; i <= n; ++i) {
    const Task& t = ws.sorted[i - 1];
    ws.prefix[i + 1] =
        ws.prefix[i] +
        in.beta * stretch_energy_term(t.work, ws.d[i], in.lambda);
  }
  return in;
}

/// E_i(Delta): total energy in Case i at memory sleep length Delta.
double case_energy(const Instance& in, int i, double delta) {
  const double T = in.horizon - delta;
  if (T < 0.0) return std::numeric_limits<double>::infinity();
  double e = in.alpha_m * T + in.ws->prefix[i];
  if (in.ws->suffix_wl[i] > 0.0) {
    if (T <= 0.0) return std::numeric_limits<double>::infinity();
    e += in.beta * in.ws->suffix_wl[i] * std::pow(T, 1.0 - in.lambda);
  }
  return e;
}

/// Unconstrained case-i minimizer Delta_mi (Eq. 4).
double delta_mi(const Instance& in, int i) {
  if (in.alpha_m <= 0.0) return 0.0;  // free memory: never shrink the interval
  const double s = in.ws->suffix_wl[i];
  if (s <= 0.0) return in.horizon;
  const double t =
      std::pow(in.beta * (in.lambda - 1.0) * s / in.alpha_m, 1.0 / in.lambda);
  return in.horizon - t;
}

struct CaseLocal {
  bool feasible = false;
  double delta = 0.0;
  double energy = std::numeric_limits<double>::infinity();
};

/// Feasible Delta domain of case i: [delta_i, min(delta_{i-1}, speed cap)].
/// The speed cap keeps the stretched tasks (j >= i) within s_up. A task
/// whose filled speed sits inside instance_ok()'s 1e-12 slack above s_up
/// leaves no room under the exact cap; the slack then admits the case at
/// its lower edge, where every stretched task runs at most at its filled
/// speed.
CaseLocal case_local_optimum(const Instance& in, int i) {
  CaseLocal out;
  const double lo = in.ws->delta[i];
  double hi = (i >= 2) ? in.ws->delta[i - 1] : in.horizon;
  if (std::isfinite(in.s_up) && in.ws->suffix_wmax[i] > 0.0) {
    const double w = in.ws->suffix_wmax[i];
    hi = std::min(hi, in.horizon - w / in.s_up);
    if (hi < lo && in.horizon - w / (in.s_up * (1.0 + 1e-12)) >= lo) hi = lo;
  }
  if (hi < lo) return out;  // case entirely infeasible under the speed cap
  const double dm = std::clamp(delta_mi(in, i), lo, hi);
  out.feasible = true;
  out.delta = dm;
  out.energy = case_energy(in, i, dm);
  return out;
}

OfflineResult finalize(const Instance& in, int best_case, double best_delta,
                       double best_energy) {
  OfflineResult res;
  res.feasible = true;
  res.case_index = best_case;
  res.sleep_time = best_delta;
  res.energy = best_energy;
  const double T = in.horizon - best_delta;
  for (int j = 1; j <= in.n(); ++j) {
    const Task& t = in.ws->sorted[j - 1];
    if (t.work <= 0.0) continue;
    // Tasks with delta_j > Delta keep their whole region; the rest stretch
    // to finish exactly at |I| - Delta.
    const double len = (j < best_case) ? in.ws->d[j] : T;
    res.schedule.add(Segment{t.id, j - 1, in.release, in.release + len,
                             t.work / len});
  }
  return res;
}

OfflineResult infeasible_result() { return {}; }

bool instance_ok(const TaskSet& tasks, const SystemConfig& cfg,
                 bool validated) {
  return !tasks.empty() && tasks.is_common_release() &&
         (validated || tasks.validate().empty()) &&
         tasks.max_filled_speed() <= cfg.core.max_speed() * (1.0 + 1e-12);
}

}  // namespace

OfflineResult solve_common_release_alpha0(const TaskSet& tasks,
                                          const SystemConfig& cfg,
                                          CommonReleaseScratch& ws,
                                          bool validated) {
  if (!instance_ok(tasks, cfg, validated)) return infeasible_result();
  const Instance in = build_instance(tasks, cfg, ws);

  int best_case = -1;
  double best_delta = 0.0;
  double best_energy = std::numeric_limits<double>::infinity();
  for (int i = 1; i <= in.n(); ++i) {
    const CaseLocal loc = case_local_optimum(in, i);
    if (loc.feasible && loc.energy < best_energy) {
      best_energy = loc.energy;
      best_delta = loc.delta;
      best_case = i;
    }
  }
  if (best_case < 0) return infeasible_result();
  return finalize(in, best_case, best_delta, best_energy);
}

OfflineResult solve_common_release_alpha0(const TaskSet& tasks,
                                          const SystemConfig& cfg) {
  CommonReleaseScratch ws;
  return solve_common_release_alpha0(tasks, cfg, ws, /*validated=*/false);
}

OfflineResult solve_common_release_alpha0_binary(const TaskSet& tasks,
                                                 const SystemConfig& cfg) {
  if (!instance_ok(tasks, cfg, /*validated=*/false)) return infeasible_result();
  CommonReleaseScratch ws;
  const Instance in = build_instance(tasks, cfg, ws);
  const int n = in.n();

  // Lemma 1: classify Case i by where its (speed-cap-clamped) local optimum
  // falls relative to the case domain [delta_i, delta_{i-1}). "Just-fit"
  // (pinned at the lower boundary) sends the search towards larger i,
  // "invalid" (pinned at the shared upper boundary delta_{i-1}) towards
  // smaller i, an s_up-capped or interior ("valid") optimum terminates: the
  // speed cap only tightens with smaller i, so no smaller-i case is
  // feasible beyond it.
  int lo = 1, hi = n;
  int best_case = -1;
  double best_delta = 0.0;
  double best_energy = std::numeric_limits<double>::infinity();
  auto record = [&](int i, const CaseLocal& loc) {
    if (loc.feasible && loc.energy < best_energy) {
      best_energy = loc.energy;
      best_delta = loc.delta;
      best_case = i;
    }
  };
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    const CaseLocal loc = case_local_optimum(in, mid);
    if (!loc.feasible) {
      // The case's whole domain violates the speed cap: feasible sleep
      // lengths are strictly smaller, i.e. in higher-i cases.
      lo = mid + 1;
      continue;
    }
    record(mid, loc);
    const double dom_lo = ws.delta[mid];
    const double dom_hi = (mid >= 2) ? ws.delta[mid - 1] : in.horizon;
    const double dm = delta_mi(in, mid);
    if (dm < dom_lo) {
      lo = mid + 1;  // just-fit
    } else if (dm >= dom_hi && mid >= 2 && loc.delta >= dom_hi - 1e-15) {
      hi = mid - 1;  // invalid (and not merely capped by s_up)
    } else {
      break;  // valid interior or pinned by the speed cap: global optimum
    }
  }
  if (best_case < 0) return infeasible_result();
  return finalize(in, best_case, best_delta, best_energy);
}

}  // namespace sdem
