#include "mem/contention.hpp"

#include <algorithm>
#include <vector>

namespace sdem {

ContentionReport analyze_contention(const Schedule& sched,
                                    const ContentionParams& params) {
  ContentionReport out;
  if (sched.empty()) return out;

  // Slice boundaries: every segment start/end.
  std::vector<double> cuts;
  cuts.reserve(sched.size() * 2);
  for (const auto& s : sched.segments()) {
    cuts.push_back(s.start);
    cuts.push_back(s.end);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

  double util_time = 0.0;   // integral of u over busy time
  double demand = 0.0;      // total requests issued
  double wait_demand = 0.0; // integral of wait * request rate

  for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
    const double lo = cuts[i], hi = cuts[i + 1];
    const double len = hi - lo;
    if (len <= 0.0) continue;
    double mhz = 0.0;
    bool busy = false;
    for (const auto& s : sched.segments()) {
      if (s.start <= lo && s.end >= hi) {
        mhz += s.speed;
        busy = true;
      }
    }
    if (!busy) continue;
    out.busy_time += len;
    const double rate = mhz * 1e6 / 1e6 * params.accesses_per_megacycle;
    // rate: accesses per second = (megacycles per second) * apm.
    const double u = rate * params.service_time /
                     static_cast<double>(params.banks);
    out.peak_utilization = std::max(out.peak_utilization, u);
    util_time += u * len;
    const double slice_demand = rate * len;
    demand += slice_demand;
    if (u >= 1.0) {
      out.saturated_fraction += len;
    } else {
      const double wait = params.service_time * u / (2.0 * (1.0 - u));
      wait_demand += wait * slice_demand;
    }
  }

  if (out.busy_time > 0.0) {
    out.mean_utilization = util_time / out.busy_time;
    out.saturated_fraction /= out.busy_time;
  }
  if (demand > 0.0) out.mean_wait = wait_demand / demand;
  return out;
}

}  // namespace sdem
