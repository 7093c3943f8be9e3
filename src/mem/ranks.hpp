// Multi-rank memory with per-rank power management.
//
// The paper assumes each core owns a disjoint memory area (§3) but the
// *device* sleeps only during the common idle time of all cores — that
// coupling is the whole problem. Real DRAM offers a middle ground: with
// one rank per core (or partial-array self refresh), a rank can nap
// whenever its own core idles, regardless of the others.
//
// This module evaluates a schedule under a rank-granular memory: rank r
// (serving a group of cores) is busy when any of its cores executes, and
// sleeps independently under break-even accounting. Two corner cases
// bracket the paper's setting:
//
//   * one rank for all cores  == the paper's monolithic memory;
//   * one rank per core       == fully decoupled: the common-idle-time
//     coupling disappears and with it most of SDEM-ON's edge over
//     memory-oblivious scheduling (quantified by the rank_granularity
//     experiment).
//
// Total leakage is conserved: each rank carries alpha_m / num_ranks and
// the per-rank break-even time stays xi_m (pair energy scales with the
// rank's share of the leakage).
#pragma once

#include <vector>

#include "model/power.hpp"
#include "sched/energy.hpp"
#include "sched/schedule.hpp"

namespace sdem {

struct RankEnergy {
  double active = 0.0;
  double idle = 0.0;
  double transition = 0.0;
  double sleep_time = 0.0;  ///< summed over ranks
  // Ladder-path extras (zero on the single-state path below).
  double residency = 0.0;    ///< in-state power * time, summed over ranks
  double cycles = 0.0;       ///< completed sleep cycles, summed over ranks
  double aborts = 0.0;       ///< pairs that did not fit their gap
  double mispredicts = 0.0;  ///< governor slept in a state with xi > gap
  double total() const { return active + idle + transition + residency; }
};

/// Evaluate `sched` with `num_ranks` ranks; core c maps to rank
/// c % num_ranks. Gap discipline: sleep iff gap >= xi_m (per rank).
/// Horizon semantics as in sched/energy.hpp (awake at both ends).
RankEnergy rank_memory_energy(const Schedule& sched, const MemoryPower& memory,
                              int num_ranks, int num_cores, double horizon_lo,
                              double horizon_hi);

/// Ladder generalization: each rank carries a 1/num_ranks share of the
/// device (state powers and pair energies scale; per-state xi and latency
/// are scale-invariant). Per gap, rank r either consults its own governor
/// (`governors[r]`, when given — per-rank predictor state is the "per
/// island" EWMA/histogram the governor design calls for) or takes the
/// clairvoyant oracle state. Gaps shorter than the chosen state's latency
/// abort: idle power for the gap plus the sunk pair energy.
RankEnergy rank_memory_energy_ladder(
    const Schedule& sched, const MemoryPower& memory, const SleepLadder& ladder,
    int num_ranks, int num_cores, double horizon_lo, double horizon_hi,
    const std::vector<MemoryGapGovernor*>& governors = {});

}  // namespace sdem
