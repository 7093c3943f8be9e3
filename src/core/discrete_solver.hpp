// Discrete-DVFS-aware optimal common-release scheme.
//
// core/discretize.hpp realizes a *continuous* optimum on a ladder after the
// fact. Solving directly over the ladder does better: inside a window of
// length W the cheapest discrete execution of w megacycles is the convex
// envelope of the per-level costs — run the two adjacent levels bracketing
// w / W (Ishihara-Yasuura), or race at the single best level when the
// window is loose. That per-task cost
//
//   f_disc(W) = min over feasible level mixes of exec energy
//
// is affine in W inside each bracket (with t_hi = (w - lo W) / (hi - lo),
// P(hi) t_hi + P(lo) (W - t_hi) is linear in W) and constant once racing or
// deadline-capped. So E(T) = alpha_m T + sum_k f_disc(min(T, d_k)) is
// piecewise *linear* with breakpoints where a task's window hits its
// deadline, a ladder level (window = w / level) or its race knee, and the
// optimum sits on a breakpoint. The solver sweeps the sorted breakpoints
// once with a running intercept and slope — O(nL log nL) — and settles
// near-ties by evaluating the objective directly.
//
// Guarantees tested: never better than the continuous optimum, never worse
// than post-hoc discretization of it, and exact agreement with brute force
// on small instances.
#pragma once

#include "core/discretize.hpp"
#include "core/result.hpp"
#include "model/power.hpp"
#include "model/task.hpp"

namespace sdem {

/// Cheapest discrete execution of `t` inside a window of length `window`:
/// two adjacent levels splitting the window (work and duration preserved)
/// or a single level finishing early when that level is at or above the
/// core's critical speed. Returns +inf if even the top level cannot fit.
/// Outputs the chosen levels and the time spent at the faster one.
double discrete_window_energy(const Task& t, const CorePower& core,
                              const FrequencyLadder& ladder, double window,
                              double* hi_level = nullptr,
                              double* lo_level = nullptr,
                              double* hi_time = nullptr);

/// Optimal common-release schedule restricted to ladder speeds.
OfflineResult solve_common_release_discrete(const TaskSet& tasks,
                                            const SystemConfig& cfg,
                                            const FrequencyLadder& ladder);

}  // namespace sdem
