#include "core/transition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "obs/obs.hpp"

namespace sdem {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double tail_cost(double static_power, double gap, double break_even) {
  if (gap <= 0.0 || static_power <= 0.0) return 0.0;
  if (break_even <= 0.0) return 0.0;
  return std::min(static_power * gap, static_power * break_even);
}

/// transition_task_cost with the core critical speed s_m =
/// cfg.core.critical_speed_raw() passed in, so a solve pays its pow once.
double task_cost(const Task& t, const SystemConfig& cfg, double s_m, double H,
                 double window, double& run, double& speed) {
  run = 0.0;
  speed = 0.0;
  if (t.work <= 0.0) return 0.0;
  if (window <= 0.0) return kInf;
  const double fill = t.work / window;
  if (fill > cfg.core.max_speed() * (1.0 + 1e-12)) return kInf;

  auto cost_at = [&](double r) {
    const double s = t.work / r;
    return cfg.core.exec_energy(t.work, s) +
           tail_cost(cfg.core.alpha, H - r, cfg.core.xi);
  };

  // Candidate 1: stretch to the window.
  double best_run = window;
  double best = cost_at(window);
  // Candidate 2: race at the (clamped) critical speed and sleep.
  if (s_m > 0.0) {
    const double s_race = std::min(std::max(s_m, fill), cfg.core.max_speed());
    const double r = t.work / s_race;
    const double c = cost_at(r);
    if (c < best) {
      best = c;
      best_run = r;
    }
  } else if (cfg.core.alpha <= 0.0) {
    // No static power: the tail is free; stretching is optimal (candidate 1).
  }
  run = best_run;
  speed = t.work / best_run;
  return best;
}

}  // namespace

double transition_task_cost(const Task& t, const SystemConfig& cfg, double H,
                            double window, double& run, double& speed) {
  return task_cost(t, cfg, cfg.core.critical_speed_raw(), H, window, run,
                   speed);
}

OfflineResult solve_common_release_transition(const TaskSet& tasks,
                                              const SystemConfig& cfg,
                                              TransitionWorkspace& ws,
                                              bool validated) {
  SDEM_OBS_TIMER("transition/solve");
  OfflineResult res;
  if (tasks.empty() || !tasks.is_common_release()) return res;
  if (!validated && !tasks.validate().empty()) return res;
  if (tasks.max_filled_speed() > cfg.core.max_speed() * (1.0 + 1e-12))
    return res;

  const double release = tasks[0].release;
  double H = 0.0;
  for (const auto& t : tasks.tasks()) H = std::max(H, t.deadline - release);
  if (H <= 0.0) return res;

  const double alpha = cfg.core.alpha;
  const double beta = cfg.core.beta;
  const double lambda = cfg.core.lambda;
  const double xi = cfg.core.xi;
  const double alpha_m = cfg.memory.alpha_m;
  const double xi_m = cfg.memory.xi_m;
  const double s_m = cfg.core.critical_speed_raw();
  const double s_up = cfg.core.max_speed();
  const double s_race = std::min(s_m > 0.0 ? s_m : s_up, s_up);
  // The tails are linear in their gap up to the break-even time, then flat.
  const bool core_tail = alpha > 0.0 && xi > 0.0;
  const bool mem_tail = alpha_m > 0.0 && xi_m > 0.0;

  // Feasible domain: every task needs window min(T, d_k) >= w_k / s_up, so
  // T >= t_min = max_k w_k / s_up (deadlines already satisfy it).
  const std::size_t n = tasks.size();
  double t_min = 0.0;
  double total_work = 0.0;
  for (const Task& t : tasks.tasks()) {
    total_work += t.work;
    if (std::isfinite(s_up)) t_min = std::max(t_min, t.work / s_up);
  }
  const bool has_work = total_work > 0.0;
  const auto cap = [&](std::size_t k) { return tasks[k].deadline - release; };

  // Per-task branch thresholds. As T grows, a task stretches (fill above the
  // race speed), then races at a T-independent cost from its knee
  // w / s_race, then — only where its core tail idles (T > H - xi) —
  // stretches again once the idle-branch stretch cost
  //   alpha H + beta w^lambda T^(1-lambda)
  // drops below the race cost (the closed-form crossing tau_k), and finally
  // turns constant once T passes its deadline cap.
  ws.wl.assign(n, 0.0);
  ws.race_cost.assign(n, 0.0);
  ws.knee.assign(n, kInf);
  ws.restretch.assign(n, kInf);
  ws.const_cost.assign(n, 0.0);
  ws.mode.assign(n, 0);
  auto& events = ws.events;
  events.clear();
  const auto add_event = [&](double T, std::uint32_t task) {
    if (T > t_min && T < H) events.push_back({T, task});
  };
  add_event(H - xi, TransitionWorkspace::kNoTask);
  add_event(H - xi_m, TransitionWorkspace::kNoTask);
  for (std::size_t k = 0; k < n; ++k) {
    const double w = tasks[k].work;
    const auto task = static_cast<std::uint32_t>(k);
    if (w <= 0.0) continue;
    ws.wl[k] = std::pow(w, lambda);
    add_event(cap(k), task);
    if (s_m <= 0.0) continue;
    const double r = w / s_race;
    ws.race_cost[k] =
        cfg.core.exec_energy(w, w / r) + tail_cost(alpha, H - r, xi);
    ws.knee[k] = r;
    add_event(r, task);
    const double rhs = ws.race_cost[k] - alpha * H;
    if (core_tail && std::isfinite(s_race) && rhs > 0.0) {
      const double tau =
          std::pow(beta * ws.wl[k] / rhs, 1.0 / (lambda - 1.0));
      ws.restretch[k] = std::max({r, tau, H - xi});
      add_event(ws.restretch[k], task);
    }
  }
  std::sort(events.begin(), events.end(),
            [](const TransitionWorkspace::Event& x,
               const TransitionWorkspace::Event& y) { return x.T < y.T; });

  std::uint64_t obs_probes = 0;
  std::uint64_t obs_live = 0;
  std::uint64_t obs_pieces = 0;

  // Running piece model: `stretching` tasks contribute beta w^lambda
  // T^(1-lambda) plus their exec/tail linear part, every other task a
  // constant (summed in `constant`).
  enum Mode : char { kZero, kStretch, kRace, kCapped };
  std::size_t stretching = 0;
  double sum_wl = 0.0;    // sum of w^lambda over the stretching tasks
  double constant = 0.0;  // sum of the constant task costs
  const auto set_mode = [&](std::size_t k, double lo) {
    const double w = tasks[k].work;
    Mode m = kZero;
    if (w > 0.0) {
      if (cap(k) <= lo) {
        m = kCapped;
      } else if (ws.knee[k] <= lo && ws.restretch[k] > lo) {
        m = kRace;
      } else {
        m = kStretch;
      }
    }
    const Mode old = static_cast<Mode>(ws.mode[k]);
    if (m == old) return;
    if (old == kStretch) {
      --stretching;
      sum_wl -= ws.wl[k];
    } else if (old != kZero) {
      constant -= ws.const_cost[k];
    }
    if (m == kStretch) {
      ++stretching;
      sum_wl += ws.wl[k];
    } else if (m == kRace) {
      ws.const_cost[k] = ws.race_cost[k];
      constant += ws.const_cost[k];
    } else if (m == kCapped) {
      double run = 0.0, speed = 0.0;
      ws.const_cost[k] = task_cost(tasks[k], cfg, s_m, H, cap(k), run, speed);
      ++obs_live;
      constant += ws.const_cost[k];
    }
    if (stretching == 0) sum_wl = 0.0;  // drop the cancellation residue
    ws.mode[k] = static_cast<char>(m);
  };

  // Sweep the pieces [lo, hi] left to right; on each, E(T) = a T + b +
  // C T^(1-lambda) and the candidates are lo, hi and the clamped stationary
  // point. The model only ranks the candidates: the energy returned is the
  // direct objective at the winner. Ties go to H, then to the leftmost
  // candidate, as a left-to-right scan seeded with E(H) would resolve them.
  double best_T = H;
  double best_model = kInf;
  double best_lo = 0.0;    // lower edge of the winner's piece
  double best_curv = 0.0;  // E'' at the winner when it is a stationary point
  if (t_min < H) {
    for (std::size_t k = 0; k < n; ++k) set_mode(k, t_min);
    std::size_t next = 0;
    double lo = t_min;
    // T^(1-lambda) at lo, NaN until taken: a piece's lo is the previous
    // piece's hi, whose power that piece may already have paid for.
    constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
    double lo_pow = kUnset;
    while (lo < H) {
      for (; next < events.size() && events[next].T <= lo; ++next) {
        if (events[next].task != TransitionWorkspace::kNoTask)
          set_mode(events[next].task, lo);
      }
      const double hi = next < events.size() ? events[next].T : H;
      ++obs_pieces;
      const bool core_idle = core_tail && lo >= H - xi;
      const bool mem_idle = mem_tail && lo >= H - xi_m;
      // Awake-idle tails make the device's cost alpha * (H - T) + alpha T,
      // flat in T; sleeping tails (or none) leave its alpha T term.
      const double ns = static_cast<double>(stretching);
      const double a =
          (mem_idle ? 0.0 : alpha_m) + (core_idle ? 0.0 : alpha * ns);
      const double b =
          constant +
          (mem_idle ? alpha_m * H : (mem_tail ? alpha_m * xi_m : 0.0)) +
          ns * (core_idle ? alpha * H : (core_tail ? alpha * xi : 0.0));
      const double C = beta * sum_wl;
      // `t_pow` caches T^(1-lambda): NaN until this call needs it.
      const auto model = [&](double T, double& t_pow) {
        ++obs_probes;
        if (T <= 0.0) return has_work ? kInf : 0.0;
        if (C > 0.0 && std::isnan(t_pow)) t_pow = std::pow(T, 1.0 - lambda);
        return a * T + b + (C > 0.0 ? C * t_pow : 0.0);
      };
      const auto consider = [&](double T, double& t_pow, double curv) {
        const double e = model(T, t_pow);
        if (e < best_model || (T == H && e <= best_model)) {
          best_model = e;
          best_T = T;
          best_lo = lo;
          best_curv = curv;
        }
      };
      if (a > 0.0 && C > 0.0) {
        const double t_star =
            std::pow((lambda - 1.0) * C / a, 1.0 / lambda);
        // E'' = lambda (lambda - 1) C T^(-1-lambda) = lambda a / T at T*.
        double star_pow = kUnset;
        if (t_star > lo && t_star < hi)
          consider(t_star, star_pow, lambda * a / t_star);
      }
      double hi_pow = kUnset;
      consider(lo, lo_pow, 0.0);
      consider(hi, hi_pow, 0.0);
      lo = hi;
      lo_pow = hi_pow;
    }
  }
  // Around a stationary point E is flat to rounding over a band of relative
  // width ~sqrt(eps), yet the online policy turns a shorter memory busy
  // interval into sleep. Take the smallest T whose objective is within
  // kTieBand of the minimum, E'' d^2 / 2 = kTieBand * E: below what the
  // direct objective resolves, and close to where the golden-section
  // oracle, which breaks ties leftward, settles in the median
  // (docs/testing.md, "The Section 7 tolerance trade").
  constexpr double kTieBand = std::numeric_limits<double>::epsilon() / 8.0;
  if (best_curv > 0.0) {
    best_T = std::max(
        best_lo, best_T - std::sqrt(2.0 * kTieBand * best_model / best_curv));
  }
  // The energy returned is the direct objective at best_T, summed task by
  // task; the same pass keeps each task's run and speed for the schedule.
  ++obs_probes;
  obs_live += n;
  ws.run.assign(n, 0.0);
  ws.speed.assign(n, 0.0);
  double best = has_work ? kInf : 0.0;
  if (best_T > 0.0) {
    best = alpha_m * best_T + tail_cost(alpha_m, H - best_T, xi_m);
    for (std::size_t k = 0; k < n && std::isfinite(best); ++k) {
      best += task_cost(tasks[k], cfg, s_m, H, std::min(best_T, cap(k)),
                        ws.run[k], ws.speed[k]);
    }
  }
  SDEM_OBS_INC("transition/solves");
  SDEM_OBS_COUNT("transition/tasks", n);
  SDEM_OBS_COUNT("transition/probes", obs_probes);
  SDEM_OBS_COUNT("transition/task_evals_live", obs_live);
  SDEM_OBS_COUNT("transition/pieces", obs_pieces);
  if (!std::isfinite(best)) return res;

  res.feasible = true;
  res.energy = best;
  res.sleep_time = H - best_T;
  SDEM_OBS_DIST("transition/sleep_time_s", res.sleep_time);
  int core = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Task& t = tasks[i];
    if (t.work > 0.0) {
      res.schedule.add(
          Segment{t.id, core, release, release + ws.run[i], ws.speed[i]});
    }
    ++core;
  }
  return res;
}

OfflineResult solve_common_release_transition(const TaskSet& tasks,
                                              const SystemConfig& cfg) {
  TransitionWorkspace ws;
  return solve_common_release_transition(tasks, cfg, ws, /*validated=*/false);
}

}  // namespace sdem
