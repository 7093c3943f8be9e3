#include "mem/ranks.hpp"

#include <algorithm>

namespace sdem {

EnergyBreakdown rank_memory_energy(const Schedule& sched,
                                   const MemoryPower& memory, int num_ranks,
                                   int num_cores, double horizon_lo,
                                   double horizon_hi) {
  EnergyBreakdown out;
  num_ranks = std::max(1, num_ranks);
  num_cores = std::max(num_cores, sched.cores_used());
  const MemoryPower rank{memory.alpha_m / num_ranks, memory.xi_m, {}};
  EnergyOptions opts;
  opts.horizon_lo = horizon_lo;
  opts.horizon_hi = horizon_hi;

  for (int r = 0; r < num_ranks; ++r) {
    // Busy union of the rank's cores.
    std::vector<Interval> v;
    for (const auto& seg : sched.segments()) {
      if (seg.core % num_ranks == r) v.push_back({seg.start, seg.end});
    }
    add_memory_energy(merge_intervals(std::move(v)), rank, opts, out);
  }
  return out;
}

}  // namespace sdem
