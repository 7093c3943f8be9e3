// Mode-transition overhead extension (paper §7).
//
// Model: the system is awake at both ends of the horizon [0, H] with
// H = d_max - release (the maximal interval I of the task set, as in the
// paper's constrained-critical-speed definition). The memory is busy on
// [0, T]; the trailing gap H - T costs min(alpha_m (H-T), alpha_m xi_m)
// (idle-awake vs one sleep cycle). Each core runs its task over [0, run]
// and its trailing gap costs min(alpha (H-run), alpha xi).
//
// Per task, given the window W = min(T, d_k - release), the core either
//   * stretches: run = W (cheapest when its trailing gap would be shorter
//     than the break-even time anyway), or
//   * races: run = w / s_c with the constrained critical speed
//     s_c = min{max{s_m, w/W}, s_up} and sleeps through the tail
// — the two candidates of the paper's constrained-critical-speed analysis;
// no other run length can be optimal (the idle branch of the tail makes the
// energy decreasing in run, the sleep branch is convex with minimum at s_m).
//
// The total energy
//   E(T) = alpha_m T + tail_m(H - T) + sum_k task_cost_k(T)
// is smooth between breakpoints where some term changes branch (c_k, d_k,
// the race/stretch crossings, H-xi, H-xi_m). On each piece every task is
// either constant (deadline-capped or racing) or stretching, so
//   E(T) = a T + b + C T^(1-lambda),
// with C = beta * sum of w^lambda over the stretching tasks. Its only
// stationary point is the paper's closed form
//   T* = ((lambda-1) C / a)^(1/lambda)
// (Eqs. 4 and 8 and the cores-sleep/memory-idle variant). The solver sweeps
// the pieces once, keeping a, b and C current as tasks change branch, and
// takes the best of {lo, hi, clamp(T*)} over all pieces; Table 3's case
// analysis is exactly the restriction of this candidate set to the relevant
// orderings of Delta, xi and xi_m. A winning T* gives way to the smallest T
// within eps/8 (relative) of its energy, the shortest memory busy interval
// rounding cannot tell from it. With xi == xi_m == 0 the scheme reduces to
// Section 4.
#pragma once

#include <cstdint>
#include <vector>

#include "core/result.hpp"
#include "model/power.hpp"
#include "model/task.hpp"

namespace sdem {

/// Minimal core energy (exec + trailing-gap cost against horizon H) for a
/// task whose window is `window`. Outputs the chosen run length and speed.
double transition_task_cost(const Task& t, const SystemConfig& cfg, double H,
                            double window, double& run, double& speed);

/// Reusable scratch for solve_common_release_transition: per-task branch
/// thresholds and constants (the pow-bearing w^lambda and race cost are
/// paid once per solve), the sorted breakpoint sweep, and the winner's
/// per-task run and speed, so a caller that solves once per replan
/// allocates nothing.
struct TransitionWorkspace {
  /// A breakpoint of the sweep: `task` changes branch at T (kNoTask for the
  /// memory and core tail thresholds H - xi_m, H - xi).
  struct Event {
    double T;
    std::uint32_t task;
  };
  static constexpr std::uint32_t kNoTask = 0xffffffffu;

  std::vector<double> wl;          ///< w^lambda (0 for a task with no work)
  std::vector<double> race_cost;   ///< total race cost while fill <= s_m
  std::vector<double> knee;        ///< T where the fill drops to the race speed
  std::vector<double> restretch;   ///< T where stretching beats racing again
  std::vector<double> const_cost;  ///< cost while the task is constant in T
  std::vector<char> mode;          ///< the task's branch on the current piece
  std::vector<Event> events;       ///< sorted sweep breakpoints
  std::vector<double> run;         ///< each task's run length at the optimum
  std::vector<double> speed;       ///< ... and its speed
};

/// Optimal common-release schedule under transition overheads.
OfflineResult solve_common_release_transition(const TaskSet& tasks,
                                              const SystemConfig& cfg);

/// Scratch-reusing overload, bit-identical to the one above.
/// `validated == true` additionally skips the TaskSet::validate() pass for
/// callers whose task sets are valid by construction (the online policy
/// re-releases pending work with positive remaining cycles and unique ids);
/// the common-release and speed-cap feasibility checks still run.
OfflineResult solve_common_release_transition(const TaskSet& tasks,
                                              const SystemConfig& cfg,
                                              TransitionWorkspace& ws,
                                              bool validated = false);

}  // namespace sdem
