// Frozen oracle: the paper's single-state idle-gap rule (§3), as energy
// accounting applied it before every gap went through the ladder walk of
// sched/energy.hpp. A device sleeps through a gap iff the gap is at least
// its break-even time xi (always when xi <= 0) and then pays
// static_power * xi for the transition pair; otherwise it idles awake at
// static power.
//
// The walk must reproduce this rule bit for bit on the depth-1 ladder
// SleepLadder::single(static_power, xi), for core and memory gaps alike;
// the `ladder:depth1-differential` fuzz invariant and the SleepLadder.Depth1*
// tests check it. Like the other frozen oracles (docs/testing.md) this file
// is never edited. It records no metrics, and folds each device's gaps in
// the order the walk must match: leading, trailing, then internal.
#pragma once

#include <vector>

#include "model/power.hpp"
#include "sched/energy.hpp"
#include "sched/schedule.hpp"

namespace sdem::testing {

/// One device's gap totals under the single-state rule.
struct ReferenceGaps {
  double idle = 0.0;       ///< time spent idle-awake in gaps
  double sleeps = 0.0;     ///< number of sleep cycles taken
  double asleep = 0.0;     ///< time spent asleep
  double sleep_min = 0.0;  ///< shortest single sleep interval (0 when none)
  double sleep_max = 0.0;  ///< longest single sleep interval
};

/// Gaps of `busy` (sorted, merged) against [horizon_lo, horizon_hi] when
/// horizon_hi > horizon_lo, else against the busy span. kGovernor decides
/// as kOptimal.
ReferenceGaps reference_gaps(const std::vector<Interval>& busy,
                             double break_even, SleepDiscipline disc,
                             double horizon_lo, double horizon_hi);

/// compute_energy's single-state fields for `sched`: core gaps under
/// kOptimal, memory gaps under `memory_gaps`. `cfg.memory.ladder` is
/// ignored and the ladder-only fields stay zero.
EnergyBreakdown reference_energy(const Schedule& sched,
                                 const SystemConfig& cfg,
                                 SleepDiscipline memory_gaps,
                                 double horizon_lo, double horizon_hi);

}  // namespace sdem::testing
