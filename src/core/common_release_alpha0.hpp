// Optimal scheme for common-release tasks with negligible core static power
// (paper §4.1, Theorem 2, Lemma 1).
//
// Setup: n tasks released together at r (shifted to 0 internally), task i
// has deadline d_i (sorted increasing) and workload w_i; |I| = d_n. The only
// decision is the memory sleep length Delta at the right end of |I|. Under
// "Case i" (delta_i <= Delta < delta_{i-1}, where delta_i = d_n - d_i) tasks
// T_1..T_{i-1} run at their filled speed over their whole region and tasks
// T_i..T_n stretch to finish exactly at |I| - Delta:
//
//   E_i(Delta) = alpha_m (|I| - Delta)
//              + beta * sum_{j<i}  w_j^l d_j^(1-l)
//              + beta * sum_{j>=i} w_j^l (|I| - Delta)^(1-l)
//
// whose unconstrained minimizer is Eq. (4):
//
//   Delta_mi = |I| - (beta (l-1) sum_{j>=i} w_j^l / alpha_m)^(1/l).
//
// The global optimum is the best local optimum over the n cases; the paper
// shows the valid/just-fit/invalid structure makes a binary search over
// cases correct (Lemma 1), giving O(n log n) including the sort.
#pragma once

#include "core/result.hpp"
#include "model/power.hpp"
#include "model/task.hpp"

namespace sdem {

/// Linear case scan (Theorem 2 order, evaluating every case): O(n) after
/// sorting. Robust reference implementation.
OfflineResult solve_common_release_alpha0(const TaskSet& tasks,
                                          const SystemConfig& cfg);

/// Binary search over cases per Lemma 1: O(log n) case evaluations after
/// sorting. Produces the same result as the linear scan.
OfflineResult solve_common_release_alpha0_binary(const TaskSet& tasks,
                                                 const SystemConfig& cfg);

}  // namespace sdem
