#include "model/access.hpp"

#include <algorithm>

namespace sdem {

std::vector<Interval> memory_busy_with_access(
    const Schedule& sched, const std::map<int, TaskAccess>& access) {
  std::vector<Interval> v;
  for (const auto& seg : sched.segments()) {
    TaskAccess a;  // default kWhole
    if (auto it = access.find(seg.task_id); it != access.end()) {
      a = it->second;
    }
    const double f = std::clamp(a.fraction, 0.0, 1.0);
    if (f <= 0.0) continue;
    const double len = seg.duration() * f;
    switch (a.pattern) {
      case AccessPattern::kWhole:
        v.push_back({seg.start, seg.end});
        break;
      case AccessPattern::kPrefix:
        v.push_back({seg.start, seg.start + len});
        break;
      case AccessPattern::kSuffix:
        v.push_back({seg.end - len, seg.end});
        break;
    }
  }
  return merge_intervals(std::move(v));
}

AccessAwareMemoryEnergy access_aware_memory_energy(
    const Schedule& sched, const std::map<int, TaskAccess>& access,
    const MemoryPower& memory, double horizon_lo, double horizon_hi) {
  AccessAwareMemoryEnergy out;
  const auto busy = memory_busy_with_access(sched, access);
  for (const auto& b : busy) out.active += memory.alpha_m * b.length();

  const SleepLadder single = SleepLadder::single(memory.alpha_m, memory.xi_m);
  const GapCosts gaps = account_idle_gaps(busy, single, horizon_lo, horizon_hi);
  out.idle = memory.alpha_m * gaps.idle;
  out.transition = gaps.per_state[0].transition_energy;
  out.sleep_time = gaps.asleep;
  return out;
}

}  // namespace sdem
