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
// rebuilds the memory busy intervals from the access phases only;
// sched/energy.hpp's `add_memory_energy` charges the memory on that
// profile exactly as compute_energy charges the whole-execution one,
// configured ladder and discipline included. The schedulers above stay
// conservative (they plan with kWhole); the delta measures how much extra
// sleep a memory-phase-aware scheduler could hope to claw back.
#pragma once

#include <map>
#include <vector>

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

}  // namespace sdem
