// Voltage/frequency islands (the paper's declared future work, §3: systems
// where groups of cores share one voltage supply island — Herbert &
// Marculescu 2007).
//
// Model: cores are grouped into islands; all cores of an island run at one
// shared speed sigma_I (each still executes its own task, starting at the
// common release). Task j on island I takes w_j / sigma_I, so the island's
// completion is w_max,I / sigma_I and feasibility needs sigma_I >= every
// member's filled speed. With the memory busy until T = max_I completions,
//
//   sigma_I(T) = clamp( s_m, max(w_max,I / T, max_j s_fj), s_up ),
//   E(T) = alpha_m T + sum_I (beta sigma_I^lambda + alpha) W_I / sigma_I
//
// where W_I is the island's total work — the same convex window structure
// as the per-core scheme with (W_I, w_max,I) replacing (w, w): piecewise
// convex in T with knees at w_max,I / s_lb,I. Each piece is
// a·T + b + C·T^(1−λ) and is solved at its closed-form stationary point,
// as the Section 7 solver does. Singleton islands recover Section 4.2
// exactly (tested).
#pragma once

#include <vector>

#include "core/result.hpp"
#include "model/power.hpp"
#include "model/task.hpp"

namespace sdem {

/// Solve the common-release problem with cores grouped per `assignment`
/// (task index in input order -> island id, 0-based, contiguous ids).
OfflineResult solve_common_release_islands(const TaskSet& tasks,
                                           const SystemConfig& cfg,
                                           const std::vector<int>& assignment);

/// Group tasks with similar filled speeds together (sorted chunking) — the
/// natural heuristic: a shared rail hurts most when it yokes a steep task
/// to shallow ones.
std::vector<int> assign_islands_similar_speed(const TaskSet& tasks,
                                              int num_islands);

}  // namespace sdem
