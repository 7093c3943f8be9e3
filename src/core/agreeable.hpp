// Dynamic-programming optimal schemes for agreeable-deadline tasks
// (paper §5.1 for alpha == 0 and §5.2 for alpha != 0).
//
// Lemma 4: sorting tasks by deadline, some optimal solution schedules them
// in deadline order across busy intervals ("blocks"), so blocks are
// contiguous ranges of the sorted order and
//
//   OPT(q) = min_{p <= q} OPT(p) + E_min(p+1..q)  [+ alpha_m * xi_m / block]
//
// where E_min is the single-block optimum from core/block.hpp. The
// transition charge follows the Section 7 DP; with xi_m == 0 it vanishes and
// this is exactly the Section 5 recurrence.
//
// The block table is built incrementally (core/block_context.hpp): row p
// grows one BlockContext across q = p..n-1 instead of re-running the full
// single-block pipeline per (p, q) pair, stores O(n²) scalars instead of
// O(n³) placements, and rows can be filled in parallel across a thread
// pool — the DP fold and reconstruction stay serial, so results are
// bit-identical at any job count.
#pragma once

#include "core/block.hpp"
#include "core/result.hpp"
#include "model/power.hpp"
#include "model/task.hpp"

namespace sdem {

class ThreadPool;

/// Generic DP over blocks. Handles both alpha == 0 and alpha != 0 because
/// the unified block objective covers both (see core/block.hpp). The result
/// `case_index` reports the number of blocks in the optimal partition.
/// With a pool, independent block-table rows are filled across its workers
/// (bit-identical to the serial fill; do not call from inside a task
/// already running on that pool — the pool does not nest).
OfflineResult solve_agreeable(const TaskSet& tasks, const SystemConfig& cfg,
                              ThreadPool* pool = nullptr);

/// The seed DP: per-(p,q) solve_block_reference calls and full placement
/// storage. Kept as the golden reference for the incremental solver.
OfflineResult solve_agreeable_reference(const TaskSet& tasks,
                                        const SystemConfig& cfg);

}  // namespace sdem
