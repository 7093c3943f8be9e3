#include "core/islands.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>

namespace sdem {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Island {
  double total_work = 0.0;  ///< W_I
  double max_work = 0.0;    ///< w_max,I
  double min_speed = 0.0;   ///< feasibility floor: max member filled speed
  double knee = 0.0;        ///< w_max,I / s_lb,I: fills its window below it
  std::vector<int> members; ///< task indices
};

}  // namespace

OfflineResult solve_common_release_islands(
    const TaskSet& tasks, const SystemConfig& cfg,
    const std::vector<int>& assignment) {
  OfflineResult res;
  if (tasks.empty() || !tasks.is_common_release() ||
      assignment.size() != tasks.size() || !tasks.validate().empty()) {
    return res;
  }
  if (!cfg.core.admits(tasks.max_filled_speed())) return res;
  const double release = tasks[0].release;

  int num_islands = 0;
  for (int a : assignment) {
    if (a < 0) return res;
    num_islands = std::max(num_islands, a + 1);
  }
  std::vector<Island> islands(num_islands);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    auto& isl = islands[assignment[i]];
    if (tasks[i].work <= 0.0) continue;
    isl.total_work += tasks[i].work;
    isl.max_work = std::max(isl.max_work, tasks[i].work);
    isl.min_speed = std::max(isl.min_speed, tasks[i].filled_speed());
    isl.members.push_back(static_cast<int>(i));
  }
  std::erase_if(islands, [](const Island& i) { return i.members.empty(); });
  // Order islands by their first task, not by label, so the energy sums
  // (and their rounding) depend on the partition alone.
  std::ranges::sort(islands, {},
                    [](const Island& i) { return i.members.front(); });
  if (islands.empty()) {
    res.feasible = true;
    return res;
  }

  const double s_m = cfg.core.critical_speed_raw();
  const double s_up = cfg.core.max_speed();
  double horizon = 0.0;
  for (const auto& t : tasks.tasks()) {
    horizon = std::max(horizon, t.deadline - release);
  }

  auto island_speed = [&](const Island& isl, double T) {
    const double needed = std::max(isl.max_work / T, isl.min_speed);
    return std::min(std::max(s_m, needed), s_up);
  };
  auto energy = [&](double T) {
    if (T <= 0.0) return kInf;
    double e = cfg.memory.alpha_m * T;
    for (const auto& isl : islands) {
      const double sigma = island_speed(isl, T);
      if (isl.max_work / sigma > T * (1.0 + 1e-9)) return kInf;  // s_up bound
      e += cfg.core.exec_energy(isl.total_work, sigma);
    }
    return e;
  };

  // Piece edges: feasibility floor + per-island knees.
  double t_min = 0.0;
  for (const auto& isl : islands) {
    t_min = std::max(t_min, isl.max_work / s_up);
  }
  std::set<double> bps;
  for (auto& isl : islands) {
    isl.knee = isl.max_work / std::max({s_m, isl.min_speed, 1e-12});
    if (isl.knee > t_min && isl.knee < horizon) bps.insert(isl.knee);
  }
  std::vector<double> edges(bps.begin(), bps.end());
  edges.insert(edges.begin(), t_min);
  edges.push_back(horizon);

  // On a piece [lo, hi] the islands whose knee lies at or past hi fill
  // their window (sigma = w_max / T) and the rest run at a constant speed,
  // so E(T) = a T + b + C T^(1-lambda) with a = alpha_m + sum alpha W / w_max
  // and C = sum beta W w_max^(lambda-1) over the filling islands: the
  // stationary point ((lambda-1) C / a)^(1/lambda), clamped to the piece, is
  // its minimum. With a or C zero the piece is monotone and its edges decide.
  const double alpha = cfg.core.alpha, beta = cfg.core.beta;
  const double lambda = cfg.core.lambda;
  double best_T = horizon;
  double best = energy(horizon);
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    const double lo = edges[i], hi = edges[i + 1];
    if (hi <= lo) continue;
    double a = cfg.memory.alpha_m, C = 0.0;
    for (const auto& isl : islands) {
      if (isl.knee < hi) continue;
      a += alpha * isl.total_work / isl.max_work;
      C += beta * isl.total_work * std::pow(isl.max_work, lambda - 1.0);
    }
    const double t =
        a > 0.0 && C > 0.0
            ? std::clamp(std::pow((lambda - 1.0) * C / a, 1.0 / lambda), lo,
                         hi)
            : lo;
    for (double cand : {t, lo, hi}) {
      const double e = energy(cand);
      if (e < best) {
        best = e;
        best_T = cand;
      }
    }
  }
  if (!std::isfinite(best)) return res;

  res.feasible = true;
  res.energy = best;
  res.sleep_time = horizon - best_T;
  res.case_index = static_cast<int>(islands.size());
  int core = 0;
  for (const auto& isl : islands) {
    const double sigma = island_speed(isl, best_T);
    for (int i : isl.members) {
      const Task& t = tasks[i];
      res.schedule.add(Segment{t.id, core++, release,
                               release + t.work / sigma, sigma});
    }
  }
  return res;
}

std::vector<int> assign_islands_similar_speed(const TaskSet& tasks,
                                              int num_islands) {
  const int n = static_cast<int>(tasks.size());
  num_islands = std::max(1, std::min(num_islands, n));
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return tasks[a].filled_speed() > tasks[b].filled_speed();
  });
  // Contiguous chunks of the sorted order: similar speeds share a rail.
  std::vector<int> assignment(n, 0);
  const int chunk = (n + num_islands - 1) / num_islands;
  for (int k = 0; k < n; ++k) {
    assignment[order[k]] = std::min(k / chunk, num_islands - 1);
  }
  return assignment;
}

}  // namespace sdem
