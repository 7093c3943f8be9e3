#include "core/common_release_alpha.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "support/numeric.hpp"

namespace sdem {
namespace {

/// A task and its critical-speed completion time.
struct Entry {
  Task task;
  double s0 = 0.0;  ///< per-task critical speed
  double c = 0.0;   ///< completion time at s0, relative to release
};

}  // namespace

OfflineResult solve_common_release_alpha(const TaskSet& tasks,
                                         const SystemConfig& cfg) {
  OfflineResult res;
  if (tasks.empty() || !tasks.is_common_release()) return res;
  if (!tasks.validate().empty()) return res;
  if (!cfg.core.admits(tasks.max_filled_speed())) return res;

  const double alpha = cfg.core.alpha;
  const double alpha_m = cfg.memory.alpha_m;
  const double beta = cfg.core.beta;
  const double lambda = cfg.core.lambda;
  const double s_up = cfg.core.max_speed();
  const double release = tasks[0].release;
  // critical_speed(fs) = min(max(s_m_raw, fs), s_up); the raw critical speed
  // costs a pow, so pay it once per solve instead of once per task.
  const double s_m_raw = cfg.core.critical_speed_raw();

  const int n = static_cast<int>(tasks.size());
  std::vector<Entry> es;
  es.reserve(n);
  for (const auto& t : tasks.tasks()) {
    Entry e;
    e.task = t;
    e.s0 = std::min(std::max(s_m_raw, t.filled_speed()), s_up);
    e.c = (t.work > 0.0) ? t.work / e.s0 : 0.0;
    es.push_back(e);
  }
  std::sort(es.begin(), es.end(),
            [](const Entry& a, const Entry& b) { return a.c < b.c; });

  const double horizon = es.back().c;  // |I| = c_n
  if (horizon <= 0.0) {
    // All workloads are zero: nothing runs, memory sleeps the whole time.
    res.feasible = true;
    res.energy = 0.0;
    res.sleep_time = 0.0;
    return res;
  }

  // Suffix sums over the c-sorted order (1-based).
  std::vector<double> suffix_wl(n + 2, 0.0);
  std::vector<double> suffix_wmax(n + 2, 0.0);
  std::vector<double> prefix_const(n + 2, 0.0);  // energy of tasks < i at s0
  for (int i = n; i >= 1; --i) {
    const auto& e = es[i - 1];
    suffix_wl[i] = suffix_wl[i + 1] + std::pow(e.task.work, lambda);
    suffix_wmax[i] = std::max(suffix_wmax[i + 1], e.task.work);
  }
  for (int i = 1; i <= n; ++i) {
    const auto& e = es[i - 1];
    prefix_const[i + 1] =
        prefix_const[i] + (e.task.work > 0.0
                               ? (beta * std::pow(e.s0, lambda) + alpha) * e.c
                               : 0.0);
  }
  auto delta_of = [&](int i) { return horizon - es[i - 1].c; };

  // E_i(Delta) without the constant early-task term.
  auto case_energy = [&](int i, double delta) {
    const double T = horizon - delta;
    if (T <= 0.0) {
      return suffix_wl[i] > 0.0 ? std::numeric_limits<double>::infinity()
                                : 0.0;
    }
    const double devices = static_cast<double>(n - i + 1) * alpha + alpha_m;
    return devices * T + beta * suffix_wl[i] * std::pow(T, 1.0 - lambda);
  };

  int best_case = -1;
  double best_delta = 0.0;
  double best_energy = std::numeric_limits<double>::infinity();
  for (int i = 1; i <= n; ++i) {
    const double lo = delta_of(i);
    double hi = (i >= 2) ? delta_of(i - 1) : horizon;
    if (std::isfinite(s_up) && suffix_wmax[i] > 0.0) {
      hi = std::min(hi, horizon - suffix_wmax[i] / s_up);
    }
    if (hi < lo) continue;  // speed cap excludes this whole case

    // Eq. (8) unconstrained minimizer, clamped into the case domain.
    double dm;
    const double devices = static_cast<double>(n - i + 1) * alpha + alpha_m;
    if (suffix_wl[i] <= 0.0) {
      dm = hi;
    } else if (devices <= 0.0) {
      dm = lo;  // no static power at all: never shrink the interval
    } else {
      dm = horizon -
           std::pow(beta * (lambda - 1.0) * suffix_wl[i] / devices,
                    1.0 / lambda);
      dm = std::clamp(dm, lo, hi);
    }
    const double e = case_energy(i, dm) + prefix_const[i];
    if (e < best_energy) {
      best_energy = e;
      best_delta = dm;
      best_case = i;
    }
  }
  if (best_case < 0) return res;

  res.feasible = true;
  res.case_index = best_case;
  res.sleep_time = best_delta;
  res.energy = best_energy;
  const double T = horizon - best_delta;
  for (int j = 1; j <= n; ++j) {
    const auto& e = es[j - 1];
    if (e.task.work <= 0.0) continue;
    // Early tasks keep s0; the rest align with the memory busy interval.
    const double len = (j < best_case) ? e.c : T;
    res.schedule.add(Segment{e.task.id, j - 1, release, release + len,
                             e.task.work / len});
  }
  return res;
}

}  // namespace sdem
