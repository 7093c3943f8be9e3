// Single-block (busy-interval) optimizer shared by the agreeable-deadline
// schemes (paper §5.1 and §5.2).
//
// A block is a subset of agreeable tasks scheduled inside one busy interval
// [s', e'] of the memory. Given (s', e'), task k owns the clipped window
// W_k = [max(s', r_k), min(e', d_k)] and its core independently runs it as
// cheaply as possible inside that window at speed
//
//   sigma_k = min{ max{ s_m, w_k / |W_k| }, s_up },
//
// i.e. stretched to fill the window unless that would drop below the core
// critical speed s_m (then the core races to s_m and sleeps — a Type-I task
// in the paper's terms; window-filling tasks are Type-II, "aligned" with the
// busy interval). The block energy is
//
//   E(s', e') = alpha_m (e' - s') + sum_k f_k(|W_k|),
//   f_k(W)    = (beta sigma_k^lambda + alpha) * w_k / sigma_k.
//
// f_k is C^1, convex and non-increasing in W (the two pieces meet with zero
// slope exactly at W = w_k / s_m), and |W_k| is concave in (s', e'), so E is
// globally convex — the paper's (i,j)-pair enumeration partitions the domain
// into boxes where E is additionally smooth. We follow that structure:
// enumerate boxes bounded by release/deadline breakpoints and minimize within
// each by alternating exact line searches. With alpha == 0 (s_m == 0) every
// task stretches to its window and this is exactly the Section 5.1
// objective; with alpha != 0 it is the fixpoint Algorithm 1 converges to
// (verified in tests against the literal Algorithm 1 implementation).
#pragma once

#include <functional>
#include <vector>

#include "model/power.hpp"
#include "model/task.hpp"
#include "sched/schedule.hpp"

namespace sdem {

struct BlockResult {
  bool feasible = false;
  double s = 0.0;        ///< busy interval start s'
  double e = 0.0;        ///< busy interval end e'
  double energy = 0.0;   ///< alpha_m (e'-s') + per-core energies
  /// One entry per input task (same order): execution [start, start+len) at
  /// `speed` on its own core.
  struct Placement {
    int task_id = 0;
    double start = 0.0;
    double len = 0.0;
    double speed = 0.0;
  };
  std::vector<Placement> placements;
};

/// Per-task minimal core energy given a window of length `window`.
/// Returns +inf when the window cannot hold the task within s_up.
double task_window_energy(const Task& t, const CorePower& core, double window);

/// Optimize one block. `tasks` must be agreeable and is treated as one busy
/// interval; placements come back on logical cores 0..n-1 (caller re-bases).
/// Routes through the incremental core/block_context solver; task vectors
/// not in agreeable deadline order fall back to solve_block_reference.
BlockResult solve_block(const std::vector<Task>& tasks,
                        const SystemConfig& cfg);

/// The seed implementation of solve_block: rebuilds breakpoints and probes
/// the O(k) block_energy_at per golden-section step. Kept as the golden
/// reference for the incremental solver (tests, cross-check, fallback).
BlockResult solve_block_reference(const std::vector<Task>& tasks,
                                  const SystemConfig& cfg);

/// Per-task placements of a block at a fixed busy interval [s, e] — the
/// reconstruction used on the DP's optimal path so the block table can hold
/// scalars only.
std::vector<BlockResult::Placement> block_placements_at(
    const std::vector<Task>& tasks, const SystemConfig& cfg, double s,
    double e);

/// Evaluate the block objective at a fixed (s', e') — exposed for tests and
/// the brute-force reference.
double block_energy_at(const std::vector<Task>& tasks, const SystemConfig& cfg,
                       double s, double e);

/// Shared box minimizer for block-style objectives f(s', e'): alternating
/// exact line searches plus a diagonal translation search, with the search
/// ranges pre-clamped to the s_up-feasible region of `tasks` (every window
/// min(e,d_k) - max(s,r_k) must hold w_k / s_up) so line searches never
/// touch the infeasibility cliff. Requires f smooth and convex in the box.
struct BoxMin {
  bool feasible = false;
  double s = 0.0;
  double e = 0.0;
  double value = 0.0;
};
BoxMin minimize_in_box(const std::vector<Task>& tasks, double s_up,
                       const std::function<double(double, double)>& f,
                       double s_lo, double s_hi, double e_lo, double e_hi);

}  // namespace sdem
