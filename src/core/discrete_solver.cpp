#include "core/discrete_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "obs/obs.hpp"

namespace sdem {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Level minimizing the race energy exec(w, s) — independent of the window
/// and of w (energy-per-cycle P(s)/s is minimized at the level closest to
/// the critical speed in cost).
double best_race_level(const CorePower& core, const FrequencyLadder& ladder) {
  double best = ladder.levels().front();
  double best_epc = kInf;
  for (double s : ladder.levels()) {
    if (!core.admits(s)) continue;
    const double epc = core.power(s) / s;
    if (epc < best_epc) {
      best_epc = epc;
      best = s;
    }
  }
  return best;
}

/// discrete_window_energy with the race level resolved by the caller.
double window_energy(double work, const CorePower& core,
                     const FrequencyLadder& ladder, double race, double window,
                     double* hi_level, double* lo_level, double* hi_time) {
  if (hi_level) *hi_level = 0.0;
  if (lo_level) *lo_level = 0.0;
  if (hi_time) *hi_time = 0.0;
  if (work <= 0.0) return 0.0;
  if (window <= 0.0) return kInf;

  const double fill = work / window;
  const double top = std::min(ladder.highest(), core.max_speed());
  if (fill > top * (1.0 + 1e-9)) return kInf;

  if (work / race <= window * (1.0 + CorePower::kAdmitSlack)) {
    // Loose window: race at the cheapest level and sleep.
    if (hi_level) *hi_level = race;
    if (lo_level) *lo_level = race;
    if (hi_time) *hi_time = work / race;
    return core.exec_energy(work, race);
  }

  // Tight window: fill it exactly with the adjacent bracketing pair.
  const auto [lo, hi] = ladder.bracket(fill);
  if (lo == hi) {
    if (hi_level) *hi_level = hi;
    if (lo_level) *lo_level = hi;
    if (hi_time) *hi_time = window;
    return core.power(hi) * window;
  }
  const double t_hi = window * (fill - lo) / (hi - lo);
  if (hi_level) *hi_level = hi;
  if (lo_level) *lo_level = lo;
  if (hi_time) *hi_time = t_hi;
  return core.power(hi) * t_hi + core.power(lo) * (window - t_hi);
}

}  // namespace

double discrete_window_energy(const Task& t, const CorePower& core,
                              const FrequencyLadder& ladder, double window,
                              double* hi_level, double* lo_level,
                              double* hi_time) {
  return window_energy(t.work, core, ladder, best_race_level(core, ladder),
                       window, hi_level, lo_level, hi_time);
}

OfflineResult solve_common_release_discrete(const TaskSet& tasks,
                                            const SystemConfig& cfg,
                                            const FrequencyLadder& ladder) {
  SDEM_OBS_TIMER("discrete/solve");
  OfflineResult res;
  if (tasks.empty() || !tasks.is_common_release() || !tasks.validate().empty())
    return res;
  const double top = std::min(ladder.highest(), cfg.core.max_speed());
  if (!CorePower::admits(tasks.max_filled_speed(), top)) return res;

  const double release = tasks[0].release;
  double horizon = 0.0;
  for (const auto& t : tasks.tasks()) {
    horizon = std::max(horizon, t.deadline - release);
  }
  const double race = best_race_level(cfg.core, ladder);
  const double alpha_m = cfg.memory.alpha_m;
  const bool has_work = tasks.total_work() > 0.0;

  std::uint64_t obs_probes = 0;
  // Direct objective: the energy at T summed task by task.
  auto energy = [&](double T) {
    ++obs_probes;
    if (T <= 0.0) return has_work ? kInf : 0.0;
    double e = alpha_m * T;
    for (const auto& t : tasks.tasks()) {
      e += window_energy(t.work, cfg.core, ladder, race,
                         std::min(T, t.deadline - release), nullptr, nullptr,
                         nullptr);
      if (!std::isfinite(e)) return kInf;
    }
    return e;
  };

  // Feasible floor and breakpoints: deadlines, per-task bracket switches
  // (window = w / level), race knees. Each is an event of its task.
  double t_min = 0.0;
  for (const auto& t : tasks.tasks()) {
    if (t.work > 0.0) t_min = std::max(t_min, t.work / top);
  }
  struct Event {
    double T;
    std::uint32_t task;
  };
  std::vector<Event> events;
  const auto add_event = [&](double T, std::size_t k) {
    if (T > t_min && T < horizon)
      events.push_back({T, static_cast<std::uint32_t>(k)});
  };
  for (std::size_t k = 0; k < tasks.size(); ++k) {
    const Task& t = tasks[k];
    if (t.work <= 0.0) continue;
    add_event(t.deadline - release, k);
    for (double s : ladder.levels()) add_event(t.work / s, k);
    add_event(t.work / race, k);
  }
  std::sort(events.begin(), events.end(),
            [](const Event& x, const Event& y) { return x.T < y.T; });

  // Per-task cost on the current piece: intercept + slope * T. Refreshed at
  // the task's own events only, at the piece midpoint so every branch test
  // sees an interior window.
  std::vector<double> icpt(tasks.size(), 0.0), slope(tasks.size(), 0.0);
  double sum_icpt = 0.0, sum_slope = alpha_m;
  const auto refresh = [&](std::size_t k, double lo, double hi) {
    const Task& t = tasks[k];
    const double cap = t.deadline - release;
    const double mid = 0.5 * (lo + hi);
    double a = 0.0, b = 0.0;
    if (t.work <= 0.0) {
    } else if (cap <= lo) {
      a = window_energy(t.work, cfg.core, ladder, race, cap, nullptr, nullptr,
                        nullptr);
    } else if (t.work / race <= mid * (1.0 + CorePower::kAdmitSlack)) {
      a = cfg.core.exec_energy(t.work, race);
    } else {
      const auto [s_lo, s_hi] = ladder.bracket(t.work / mid);
      if (s_lo == s_hi) {
        b = cfg.core.power(s_hi);
      } else {
        const double p_hi = cfg.core.power(s_hi), p_lo = cfg.core.power(s_lo);
        a = t.work * (p_hi - p_lo) / (s_hi - s_lo);
        b = (p_lo * s_hi - p_hi * s_lo) / (s_hi - s_lo);
      }
    }
    sum_icpt += a - icpt[k];
    sum_slope += b - slope[k];
    icpt[k] = a;
    slope[k] = b;
  };

  // Sweep: the model value at the left edge of every piece, then at the
  // horizon. Events all lie above t_min, so the first piece refreshes every
  // task and each later one only the tasks whose events it starts at.
  std::vector<double> edge_T, edge_model;
  std::size_t next = 0;
  for (double lo = t_min; lo < horizon;) {
    const std::size_t from = next;
    while (next < events.size() && events[next].T <= lo) ++next;
    const double hi = next < events.size() ? events[next].T : horizon;
    if (lo == t_min) {
      for (std::size_t k = 0; k < tasks.size(); ++k) refresh(k, lo, hi);
    } else {
      for (std::size_t i = from; i < next; ++i)
        refresh(events[i].task, lo, hi);
    }
    edge_T.push_back(lo);
    edge_model.push_back(sum_icpt + sum_slope * lo);
    lo = hi;
  }
  edge_T.push_back(horizon);
  edge_model.push_back(sum_icpt + sum_slope * horizon);
  obs_probes += edge_T.size();

  // The model ranks the breakpoints up to its rounding; every breakpoint
  // within a relative 1e-10 of the lowest model value is evaluated directly
  // and the strict-< fold — the horizon first, then left to right — picks
  // the winner, as a scan seeded with E(horizon) would.
  const double lowest =
      *std::min_element(edge_model.begin(), edge_model.end());
  const double cutoff = lowest + 1e-10 * std::abs(lowest);
  double best_T = horizon;
  double best = kInf;
  if (edge_model.back() <= cutoff) best = energy(horizon);
  for (std::size_t i = 0; i + 1 < edge_T.size(); ++i) {
    if (edge_model[i] > cutoff) continue;
    const double e = energy(edge_T[i]);
    if (e < best) {
      best = e;
      best_T = edge_T[i];
    }
  }
  SDEM_OBS_INC("discrete/solves");
  SDEM_OBS_COUNT("discrete/breakpoints", edge_T.size());
  SDEM_OBS_COUNT("discrete/probes", obs_probes);
  if (!std::isfinite(best)) return res;

  res.feasible = true;
  res.energy = best;
  res.sleep_time = horizon - best_T;
  int core_idx = 0;
  for (const auto& t : tasks.tasks()) {
    if (t.work <= 0.0) {
      ++core_idx;
      continue;
    }
    const double window = std::min(best_T, t.deadline - release);
    double hi = 0.0, lo = 0.0, t_hi = 0.0;
    window_energy(t.work, cfg.core, ladder, race, window, &hi, &lo, &t_hi);
    if (hi == lo) {
      res.schedule.add(
          Segment{t.id, core_idx, release, release + t_hi, hi});
    } else {
      // A fill speed landing exactly on a ladder level puts all the work on
      // one side of the bracket; skip the degenerate piece. Compare the
      // emitted endpoints, not the durations: adding `release` can absorb a
      // sub-ulp duration into a zero-length segment.
      const double split = release + t_hi;
      const double end = release + window;
      if (split > release) {
        res.schedule.add(Segment{t.id, core_idx, release, split, hi});
      }
      if (end > split) {
        res.schedule.add(Segment{t.id, core_idx, split, end, lo});
      }
    }
    ++core_idx;
  }
  return res;
}

}  // namespace sdem
