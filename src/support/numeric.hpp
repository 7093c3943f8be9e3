// Numeric substrate: 1-D/2-D continuous minimization.
//
// The schemes in src/core reduce every continuous subproblem they do not
// solve in closed form to a unimodal 1-D/2-D minimization over an interval.
// These helpers implement those primitives with explicit tolerances so
// callers can reason about the certification error in tests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>

namespace sdem {

/// Golden-section minimization of a unimodal f over [lo, hi].
/// Returns the minimizing x; tolerance is width-relative.
/// Header template so hot solvers can inline the objective instead of
/// paying a std::function indirection per probe; `golden_min` below
/// delegates here, so both entry points evaluate the identical arithmetic.
template <typename F>
double golden_min_t(F&& f, double lo, double hi, double rel_tol = 1e-10) {
  if (hi <= lo) return lo;
  constexpr double inv_phi = 0.6180339887498949;
  double a = lo, b = hi;
  double x1 = b - inv_phi * (b - a);
  double x2 = a + inv_phi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  const double tol = std::max(std::abs(hi - lo), 1.0) * rel_tol;
  while (b - a > tol) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - inv_phi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + inv_phi * (b - a);
      f2 = f(x2);
    }
  }
  return 0.5 * (a + b);
}

double golden_min(const std::function<double(double)>& f, double lo, double hi,
                  double rel_tol = 1e-10);

/// Coarse-grid scan followed by golden refinement around the best cell.
/// Robust for piecewise-smooth objectives (e.g. energy as a function of the
/// memory sleep length, which has kinks at each case boundary).
/// `grid` is the number of initial cells.
double grid_refine_min(const std::function<double(double)>& f, double lo, double hi,
                       std::size_t grid = 2048);

/// 2-D variant used by the brute-force block reference: scans an initial
/// grid over [alo,ahi]x[blo,bhi] then refines by coordinate descent with
/// golden sections. Returns the minimum objective value; outputs argmin.
double grid_refine_min2(const std::function<double(double, double)>& f,
                        double alo, double ahi, double blo, double bhi,
                        double& arg_a, double& arg_b, std::size_t grid = 96);

/// Numerically robust power for our energy terms: w^lambda * len^(1-lambda).
/// Handles len -> 0 (returns +inf for positive w) and w == 0 (returns 0).
double stretch_energy_term(double w, double len, double lambda);

}  // namespace sdem
