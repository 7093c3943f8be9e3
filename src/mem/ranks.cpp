#include "mem/ranks.hpp"

#include <algorithm>

namespace sdem {

RankEnergy rank_memory_energy(const Schedule& sched, const MemoryPower& memory,
                              int num_ranks, int num_cores, double horizon_lo,
                              double horizon_hi) {
  RankEnergy out;
  num_ranks = std::max(1, num_ranks);
  num_cores = std::max(num_cores, sched.cores_used());
  const double rank_power = memory.alpha_m / num_ranks;
  const SleepLadder rank_sleep = SleepLadder::single(rank_power, memory.xi_m);

  for (int r = 0; r < num_ranks; ++r) {
    // Busy union of the rank's cores.
    std::vector<Interval> v;
    for (const auto& seg : sched.segments()) {
      if (seg.core % num_ranks == r) v.push_back({seg.start, seg.end});
    }
    const auto busy = merge_intervals(std::move(v));

    for (const auto& b : busy) out.active += rank_power * b.length();
    const GapCosts gaps =
        account_idle_gaps(busy, rank_sleep, horizon_lo, horizon_hi);
    out.idle += rank_power * gaps.idle;
    out.transition += gaps.per_state[0].transition_energy;
    out.sleep_time += gaps.asleep;
  }
  return out;
}

}  // namespace sdem
