// Optimal scheme for common-release tasks with non-negligible core static
// power (paper §4.2, Lemma 2, Theorem 3).
//
// Each core can sleep independently once its task completes; the memory
// sleeps during the common idle time Delta at the right end. Every task has
// a critical speed s_0 = min{max{s_m, s_f}, s_up} with
// s_m = (alpha / (beta (lambda-1)))^(1/lambda): running slower than s_0
// never pays because the core's static energy grows faster than the dynamic
// energy shrinks.
//
// Run everything at s_0, sort by completion time c_i = w_i / s_0i, let
// |I| = c_n and delta_i = |I| - c_i. Under Case i (delta_i <= Delta <
// delta_{i-1}) tasks j >= i align with the memory busy interval [0, T],
// T = |I| - Delta (speed w_j / T >= s_0j), and tasks j < i keep s_0 with
// their cores sleeping early. Excluding the constant early-task term,
//
//   E_i(Delta) = [(n-i+1) alpha + alpha_m] T + beta sum_{j>=i} w_j^l T^(1-l)
//
// minimized at Eq. (8):
//
//   Delta_mi = |I| - (beta (l-1) sum_{j>=i} w_j^l
//                     / ((n-i+1) alpha + alpha_m))^(1/l).
//
// The global optimum is the best of the n case-local optima (Theorem 3).
// With alpha == 0 this scheme reduces exactly to Section 4.1.
#pragma once

#include "core/result.hpp"
#include "model/power.hpp"
#include "model/task.hpp"

namespace sdem {

OfflineResult solve_common_release_alpha(const TaskSet& tasks,
                                         const SystemConfig& cfg);

}  // namespace sdem
