// Memory-access patterns (relaxing the paper's §3 assumption that a task
// accesses the memory during its whole execution — the "memory access
// behaviors" the paper leaves as future work).
//
// Each task gets an access descriptor: the fraction of its execution that
// touches DRAM and where that fraction sits inside each execution segment:
//
//   kWhole   the paper's model: the memory must be awake for the whole run
//   kPrefix  a load phase: the first `fraction` of every segment accesses
//   kSuffix  a store phase: the last `fraction` of every segment accesses
//
// Given a schedule and per-task descriptors, `memory_busy_with_access`
// rebuilds the memory busy intervals from the access phases only, and
// `access_aware_energy` re-accounts the memory under them. The schedulers
// above stay conservative (they plan with kWhole); the delta measures how
// much extra sleep a memory-phase-aware scheduler could hope to claw back.
#pragma once

#include <map>

#include "model/power.hpp"
#include "sched/energy.hpp"
#include "sched/schedule.hpp"

namespace sdem {

enum class AccessPattern { kWhole, kPrefix, kSuffix };

struct TaskAccess {
  AccessPattern pattern = AccessPattern::kWhole;
  double fraction = 1.0;  ///< in [0, 1]
};

/// Access (DRAM-busy) intervals of a schedule under per-task descriptors.
/// Tasks without an entry default to kWhole.
std::vector<Interval> memory_busy_with_access(
    const Schedule& sched, const std::map<int, TaskAccess>& access);

/// Memory-side energy under the access-phase busy profile, through
/// sched/energy.hpp's gap walk on the paper's single sleep state
/// (horizon-aware, kOptimal discipline; `memory.ladder` is not consulted).
/// With every task kWhole it equals compute_energy's memory_total() on an
/// empty ladder.
struct AccessAwareMemoryEnergy {
  double active = 0.0;
  double idle = 0.0;
  double transition = 0.0;
  double sleep_time = 0.0;
  double total() const { return active + idle + transition; }
};
AccessAwareMemoryEnergy access_aware_memory_energy(
    const Schedule& sched, const std::map<int, TaskAccess>& access,
    const MemoryPower& memory, double horizon_lo, double horizon_hi);

}  // namespace sdem
