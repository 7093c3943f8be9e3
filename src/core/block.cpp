#include "core/block.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/block_context.hpp"
#include "support/numeric.hpp"

namespace sdem {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
// task_window_energy tolerates a 1e-9 relative overfill of the s_up
// boundary; the feasibility geometry below must grant the same slack, or a
// task with w_k = s_up * (d_k - r_k) up to rounding makes e_min/s_max claim
// the whole box infeasible while the objective is still finite — the line
// searches then never run and only box corners are ever probed.
constexpr double kUpSlack = 1.0 + 1e-9;

/// Speed chosen for a window of length `window` (block.hpp's sigma_k).
double task_window_speed(const Task& t, const CorePower& core, double window) {
  if (t.work <= 0.0) return 0.0;
  if (window <= 0.0) return kInf;
  const double fill = t.work / window;
  return std::min(std::max(core.critical_speed_raw(), fill), core.max_speed());
}

}  // namespace

BoxMin minimize_in_box(const std::vector<Task>& tasks, double s_up,
                       const std::function<double(double, double)>& f,
                       double s_lo, double s_hi, double e_lo, double e_hi) {
  BoxMin out;
  if (e_hi <= s_lo) return out;  // would force e' <= s'

  // Feasibility geometry of the s_up constraint (q_k = w_k / s_up):
  //   given s, e must reach e_min(s) = max_k (max(s, r_k) + q_k);
  //   given e, s must stay below s_max(e) = min_k max(r_k, min(e,d_k) - q_k).
  struct Need {
    double r, d, q;
  };
  std::vector<Need> needs;
  for (const auto& t : tasks) {
    if (t.work <= 0.0) continue;
    needs.push_back({t.release, t.deadline,
                     std::isfinite(s_up) ? t.work / s_up / kUpSlack : 0.0});
  }
  auto e_min = [&](double s) {
    double v = s;
    for (const auto& n : needs) {
      const double x = std::max(s, n.r) + n.q;
      if (x > n.d) return kInf;  // no e can satisfy this task
      v = std::max(v, x);
    }
    return v;
  };
  auto s_max = [&](double e) {
    double v = e;
    for (const auto& n : needs) {
      if (std::min(e, n.d) - n.r < n.q) return -kInf;  // infeasible at any s
      v = std::min(v, std::max(n.r, std::min(e, n.d) - n.q));
    }
    return v;
  };

  double s = s_lo, e = e_hi;  // maximal windows: feasible if anything is
  double val = f(s, e);
  if (!std::isfinite(val)) return out;
  out.feasible = true;
  out.s = s;
  out.e = e;
  out.value = val;

  for (int round = 0; round < 64; ++round) {
    // e-step (feasible range only).
    const double elo = std::max({e_lo, s, e_min(s)});
    if (elo > e_hi) break;
    const double new_e =
        golden_min([&](double y) { return f(s, y); }, elo, e_hi, 1e-12);
    // s-step.
    const double shi = std::min({s_hi, new_e, s_max(new_e)});
    if (shi < s_lo) break;
    const double new_s =
        golden_min([&](double x) { return f(x, new_e); }, s_lo, shi, 1e-12);
    // Diagonal translation escape (handles optima pinned on the coupled
    // constraint e - s >= q of a both-sides-clipped task).
    const double t_lo = std::max(s_lo - new_s, e_lo - new_e);
    const double t_hi = std::min(s_hi - new_s, e_hi - new_e);
    double t = 0.0;
    if (t_hi > t_lo) {
      t = golden_min([&](double dt) { return f(new_s + dt, new_e + dt); },
                     t_lo, t_hi, 1e-12);
      if (!std::isfinite(f(new_s + t, new_e + t))) t = 0.0;
    }
    const double cand_s = new_s + t;
    const double cand_e = new_e + t;
    const double cand = f(cand_s, cand_e);
    const bool converged =
        std::abs(cand_s - s) < 1e-13 * std::max(1.0, std::abs(s)) &&
        std::abs(cand_e - e) < 1e-13 * std::max(1.0, std::abs(e));
    s = cand_s;
    e = cand_e;
    if (std::isfinite(cand) && cand < out.value) {
      out.value = cand;
      out.s = s;
      out.e = e;
    }
    if (converged) break;
  }
  return out;
}

double task_window_energy(const Task& t, const CorePower& core, double window) {
  if (t.work <= 0.0) return 0.0;
  const double sigma = task_window_speed(t, core, window);
  if (!std::isfinite(sigma) || sigma <= 0.0) return kInf;
  // A 1e-9 relative slack keeps optima that sit exactly on the s_up
  // boundary finite (the window-fill speed then exceeds s_up by rounding
  // noise only); validators use looser tolerances than this.
  if (t.work / sigma > window * (1.0 + 1e-9)) return kInf;  // s_up too slow
  return core.exec_energy(t.work, sigma);
}

double block_energy_at(const std::vector<Task>& tasks, const SystemConfig& cfg,
                       double s, double e) {
  if (e <= s) return kInf;
  double energy = cfg.memory.alpha_m * (e - s);
  for (const auto& t : tasks) {
    const double lo = std::max(s, t.release);
    const double hi = std::min(e, t.deadline);
    if (t.work > 0.0 && hi <= lo) return kInf;
    energy += task_window_energy(t, cfg.core, hi - lo);
    if (!std::isfinite(energy)) return kInf;
  }
  return energy;
}

std::vector<BlockResult::Placement> block_placements_at(
    const std::vector<Task>& tasks, const SystemConfig& cfg, double s,
    double e) {
  std::vector<BlockResult::Placement> placements;
  placements.reserve(tasks.size());
  for (const auto& t : tasks) {
    BlockResult::Placement p;
    p.task_id = t.id;
    if (t.work > 0.0) {
      const double lo = std::max(s, t.release);
      const double hi = std::min(e, t.deadline);
      p.speed = task_window_speed(t, cfg.core, hi - lo);
      p.len = t.work / p.speed;
      p.start = lo;  // race-to-idle tasks run at the head of their window
    }
    placements.push_back(p);
  }
  return placements;
}

BlockResult solve_block(const std::vector<Task>& tasks,
                        const SystemConfig& cfg) {
  BlockContext ctx(cfg);
  for (const auto& t : tasks) ctx.push_task(t);
  return ctx.solve_full();
}

BlockResult solve_block_reference(const std::vector<Task>& tasks,
                                  const SystemConfig& cfg) {
  BlockResult out;
  if (tasks.empty()) return out;

  double r_min = kInf, r_max = -kInf, d_min = kInf, d_max = -kInf;
  for (const auto& t : tasks) {
    r_min = std::min(r_min, t.release);
    r_max = std::max(r_max, t.release);
    d_min = std::min(d_min, t.deadline);
    d_max = std::max(d_max, t.deadline);
  }

  // Breakpoints of the (i,j)-pair partition: s' crosses release times,
  // e' crosses deadlines. s' in [r_min, d_min], e' in [r_max, d_max].
  std::vector<double> sb, eb;
  sb.push_back(r_min);
  sb.push_back(d_min);
  for (const auto& t : tasks) {
    if (t.release > r_min && t.release < d_min) sb.push_back(t.release);
  }
  eb.push_back(r_max);
  eb.push_back(d_max);
  for (const auto& t : tasks) {
    if (t.deadline > r_max && t.deadline < d_max) eb.push_back(t.deadline);
  }
  std::sort(sb.begin(), sb.end());
  sb.erase(std::unique(sb.begin(), sb.end()), sb.end());
  std::sort(eb.begin(), eb.end());
  eb.erase(std::unique(eb.begin(), eb.end()), eb.end());

  auto energy_at = [&](double s, double e) {
    return block_energy_at(tasks, cfg, s, e);
  };

  double best = kInf;
  double best_s = r_min, best_e = d_max;

  // Minimize within each box. Inside a box the objective is smooth and
  // convex; globally it is convex, so the best box-local optimum is the
  // global optimum.
  for (std::size_t si = 0; si + 1 < sb.size(); ++si) {
    for (std::size_t ei = 0; ei + 1 < eb.size(); ++ei) {
      const BoxMin m =
          minimize_in_box(tasks, cfg.core.max_speed(), energy_at, sb[si],
                          sb[si + 1], eb[ei], eb[ei + 1]);
      if (m.feasible && m.value < best) {
        best = m.value;
        best_s = m.s;
        best_e = m.e;
      }
    }
  }

  if (!std::isfinite(best)) return out;

  out.feasible = true;
  out.s = best_s;
  out.e = best_e;
  out.energy = best;
  out.placements = block_placements_at(tasks, cfg, best_s, best_e);
  return out;
}

}  // namespace sdem
