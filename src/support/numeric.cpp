#include "support/numeric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace sdem {

double golden_min(const std::function<double(double)>& f, double lo, double hi,
                  double rel_tol) {
  return golden_min_t(f, lo, hi, rel_tol);
}

double grid_refine_min(const std::function<double(double)>& f, double lo, double hi,
                       std::size_t grid) {
  if (hi <= lo) return lo;
  grid = std::max<std::size_t>(grid, 2);
  double best_x = lo;
  double best_f = std::numeric_limits<double>::infinity();
  const double step = (hi - lo) / static_cast<double>(grid);
  for (std::size_t i = 0; i <= grid; ++i) {
    const double x = lo + step * static_cast<double>(i);
    const double v = f(x);
    if (v < best_f) {
      best_f = v;
      best_x = x;
    }
  }
  const double a = std::max(lo, best_x - step);
  const double b = std::min(hi, best_x + step);
  const double refined = golden_min(f, a, b);
  return f(refined) < best_f ? refined : best_x;
}

double grid_refine_min2(const std::function<double(double, double)>& f,
                        double alo, double ahi, double blo, double bhi,
                        double& arg_a, double& arg_b, std::size_t grid) {
  grid = std::max<std::size_t>(grid, 2);
  double best = std::numeric_limits<double>::infinity();
  arg_a = alo;
  arg_b = blo;
  // Iteratively re-gridded scan: each zoom pass re-grids a window of +-2
  // cells around the incumbent, multiplying the resolution by ~grid/4.
  double zalo = alo, zahi = ahi, zblo = blo, zbhi = bhi;
  double astep = 0.0, bstep = 0.0;
  for (int zoom = 0; zoom < 4; ++zoom) {
    astep = (zahi - zalo) / static_cast<double>(grid);
    bstep = (zbhi - zblo) / static_cast<double>(grid);
    for (std::size_t i = 0; i <= grid; ++i) {
      const double a = zalo + astep * static_cast<double>(i);
      for (std::size_t j = 0; j <= grid; ++j) {
        const double b = zblo + bstep * static_cast<double>(j);
        const double v = f(a, b);
        if (v < best) {
          best = v;
          arg_a = a;
          arg_b = b;
        }
      }
    }
    zalo = std::max(alo, arg_a - 2.0 * astep);
    zahi = std::min(ahi, arg_a + 2.0 * astep);
    zblo = std::max(blo, arg_b - 2.0 * bstep);
    zbhi = std::min(bhi, arg_b + 2.0 * bstep);
  }
  // Coordinate + diagonal descent refinement around the best grid cell (the
  // diagonal passes matter for objectives whose optimum is pinned on a
  // coupled constraint like e - s >= const).
  double a = arg_a, b = arg_b;
  for (int round = 0; round < 48; ++round) {
    const double a_lo = std::max(alo, a - astep);
    const double a_hi = std::min(ahi, a + astep);
    a = golden_min([&](double x) { return f(x, b); }, a_lo, a_hi);
    const double b_lo = std::max(blo, b - bstep);
    const double b_hi = std::min(bhi, b + bstep);
    b = golden_min([&](double y) { return f(a, y); }, b_lo, b_hi);
    // Diagonal (1, 1) pass.
    {
      const double t_lo = std::max(alo - a, blo - b);
      const double t_hi = std::min(ahi - a, bhi - b);
      if (t_hi > t_lo) {
        const double t =
            golden_min([&](double dt) { return f(a + dt, b + dt); }, t_lo, t_hi);
        if (f(a + t, b + t) < f(a, b)) {
          a += t;
          b += t;
        }
      }
    }
    const double v = f(a, b);
    if (v < best - 1e-15 * std::max(1.0, std::abs(best))) {
      best = v;
      arg_a = a;
      arg_b = b;
    } else {
      break;
    }
  }
  return best;
}

double stretch_energy_term(double w, double len, double lambda) {
  if (w <= 0.0) return 0.0;
  if (len <= 0.0) return std::numeric_limits<double>::infinity();
  return std::pow(w, lambda) * std::pow(len, 1.0 - lambda);
}

}  // namespace sdem
