#include "bounded/partition.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

namespace sdem {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::vector<double> loads_of(const TaskSet& tasks,
                             const std::vector<int>& assignment, int cores) {
  std::vector<double> loads(cores, 0.0);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    loads[assignment[i]] += tasks[i].work;
  }
  return loads;
}

}  // namespace

double bounded_energy(const std::vector<double>& core_loads,
                      const SystemConfig& cfg, double deadline,
                      double* best_interval) {
  const double beta = cfg.core.beta;
  const double lambda = cfg.core.lambda;
  const double alpha_m = cfg.memory.alpha_m;

  double sum_wl = 0.0;
  double max_load = 0.0;
  for (double w : core_loads) {
    sum_wl += std::pow(w, lambda);
    max_load = std::max(max_load, w);
  }
  if (sum_wl <= 0.0) {
    if (best_interval) *best_interval = 0.0;
    return 0.0;
  }

  // Eq. (2): unconstrained optimal interval, clamped to [W_max/s_up, D].
  double ib = alpha_m > 0.0
                  ? std::pow((lambda - 1.0) * beta * sum_wl / alpha_m,
                             1.0 / lambda)
                  : deadline;
  const double min_ib = std::isfinite(cfg.core.max_speed())
                            ? max_load / cfg.core.max_speed()
                            : 0.0;
  ib = std::clamp(ib, min_ib, deadline);
  if (ib <= 0.0 || min_ib > deadline * (1.0 + CorePower::kAdmitSlack)) {
    return kInf;
  }
  if (best_interval) *best_interval = ib;
  return beta * sum_wl * std::pow(ib, 1.0 - lambda) + alpha_m * ib;
}

BoundedResult solve_bounded_exact2(const TaskSet& tasks,
                                   const SystemConfig& cfg, double deadline) {
  BoundedResult res;
  const int n = static_cast<int>(tasks.size());
  if (n == 0 || n > 30) return res;

  // Meet in the middle: enumerate subset sums of each half; for every left
  // sum pick the right sum bringing the total closest to W/2.
  const int nl = n / 2;
  const int nr = n - nl;
  const double total = tasks.total_work();

  struct Sum {
    double value;
    std::uint32_t mask;
  };
  auto enumerate = [&](int offset, int count) {
    std::vector<Sum> sums(1u << count);
    for (std::uint32_t m = 0; m < (1u << count); ++m) {
      double s = 0.0;
      for (int b = 0; b < count; ++b) {
        if (m >> b & 1u) s += tasks[offset + b].work;
      }
      sums[m] = {s, m};
    }
    return sums;
  };
  auto left = enumerate(0, nl);
  auto right = enumerate(nl, nr);
  std::sort(right.begin(), right.end(),
            [](const Sum& a, const Sum& b) { return a.value < b.value; });

  double best_gap = kInf;
  std::uint32_t best_l = 0, best_r = 0;
  for (const auto& l : left) {
    const double want = total / 2.0 - l.value;
    auto it = std::lower_bound(
        right.begin(), right.end(), want,
        [](const Sum& s, double v) { return s.value < v; });
    for (auto cand : {it, it == right.begin() ? right.end() : std::prev(it)}) {
      if (cand == right.end()) continue;
      const double gap = std::abs(l.value + cand->value - total / 2.0);
      if (gap < best_gap) {
        best_gap = gap;
        best_l = l.mask;
        best_r = cand->mask;
      }
    }
  }

  res.assignment.assign(n, 1);
  for (int b = 0; b < nl; ++b) {
    if (best_l >> b & 1u) res.assignment[b] = 0;
  }
  for (int b = 0; b < nr; ++b) {
    if (best_r >> b & 1u) res.assignment[nl + b] = 0;
  }
  const auto loads = loads_of(tasks, res.assignment, 2);
  res.energy = bounded_energy(loads, cfg, deadline, &res.interval);
  res.feasible = std::isfinite(res.energy);
  return res;
}

BoundedResult solve_bounded_exact(const TaskSet& tasks,
                                  const SystemConfig& cfg, double deadline,
                                  int cores) {
  BoundedResult res;
  const int n = static_cast<int>(tasks.size());
  if (n == 0 || cores < 1) return res;
  if (std::pow(static_cast<double>(cores), n) > 5e7) return res;

  std::vector<int> assign(n, 0), best_assign;
  double best = kInf;
  while (true) {
    const auto loads = loads_of(tasks, assign, cores);
    const double e = bounded_energy(loads, cfg, deadline);
    if (e < best) {
      best = e;
      best_assign = assign;
    }
    int i = 0;
    while (i < n && ++assign[i] == cores) assign[i++] = 0;
    if (i == n) break;
  }
  if (!std::isfinite(best)) return res;
  res.feasible = true;
  res.assignment = std::move(best_assign);
  const auto loads = loads_of(tasks, res.assignment, cores);
  res.energy = bounded_energy(loads, cfg, deadline, &res.interval);
  return res;
}

BoundedResult solve_bounded_lpt(const TaskSet& tasks, const SystemConfig& cfg,
                                double deadline, int cores,
                                bool local_search) {
  BoundedResult res;
  const int n = static_cast<int>(tasks.size());
  if (n == 0 || cores < 1) return res;

  // LPT: largest tasks first onto the least-loaded core.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return tasks[a].work > tasks[b].work;
  });
  std::vector<int> assign(n, 0);
  std::vector<double> loads(cores, 0.0);
  for (int i : order) {
    const int c = static_cast<int>(
        std::min_element(loads.begin(), loads.end()) - loads.begin());
    assign[i] = c;
    loads[c] += tasks[i].work;
  }

  // Pairwise improvement: moves and swaps that reduce the energy.
  bool improved = local_search;
  double cur = bounded_energy(loads, cfg, deadline);
  int rounds = 0;
  while (improved && rounds++ < 64) {
    improved = false;
    for (int i = 0; i < n; ++i) {
      for (int c = 0; c < cores; ++c) {
        if (c == assign[i]) continue;
        loads[assign[i]] -= tasks[i].work;
        loads[c] += tasks[i].work;
        const double e = bounded_energy(loads, cfg, deadline);
        if (e < cur - 1e-15) {
          cur = e;
          assign[i] = c;
          improved = true;
        } else {
          loads[c] -= tasks[i].work;
          loads[assign[i]] += tasks[i].work;
        }
      }
    }
    for (int i = 0; i < n && !improved; ++i) {
      for (int j = i + 1; j < n; ++j) {
        if (assign[i] == assign[j]) continue;
        std::swap(assign[i], assign[j]);
        const auto l2 = loads_of(tasks, assign, cores);
        const double e = bounded_energy(l2, cfg, deadline);
        if (e < cur - 1e-15) {
          cur = e;
          loads = l2;
          improved = true;
          break;
        }
        std::swap(assign[i], assign[j]);
      }
    }
  }

  res.feasible = std::isfinite(cur);
  res.assignment = std::move(assign);
  res.energy = bounded_energy(loads, cfg, deadline, &res.interval);
  return res;
}

}  // namespace sdem
