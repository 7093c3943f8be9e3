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
// rank's share of the leakage). Every rank goes through sched/energy.hpp's
// one memory charge, `add_memory_energy`, into a single EnergyBreakdown
// whose memory fields are the sums over ranks.
#pragma once

#include <vector>

#include "model/power.hpp"
#include "sched/energy.hpp"
#include "sched/schedule.hpp"

namespace sdem {

/// Evaluate `sched` with `num_ranks` ranks; core c maps to rank
/// c % num_ranks. Each rank is charged by add_memory_energy on the paper's
/// single sleep state with power alpha_m / num_ranks and break-even xi_m
/// (kOptimal, awake at both horizon ends), into the memory fields of one
/// breakdown; `memory.ladder` is not consulted, since splitting a ladder
/// across ranks is undefined. One rank reproduces compute_energy's memory
/// half on an empty ladder.
EnergyBreakdown rank_memory_energy(const Schedule& sched,
                                   const MemoryPower& memory, int num_ranks,
                                   int num_cores, double horizon_lo,
                                   double horizon_hi);

}  // namespace sdem
