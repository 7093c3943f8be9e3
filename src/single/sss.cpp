#include "single/sss.hpp"

#include <algorithm>
#include <cmath>

#include "sched/energy.hpp"

namespace sdem {
namespace {

/// The schedule's gaps under the core's single sleep state, horizon = busy
/// span (sched/energy.hpp's walk).
GapCosts busy_span_gaps(const Schedule& sched, const CorePower& power) {
  std::vector<Interval> v;
  for (const auto& s : sched.segments()) v.push_back({s.start, s.end});
  return account_idle_gaps(merge_intervals(std::move(v)),
                           SleepLadder::single(power.alpha, power.xi), 0.0,
                           0.0);
}

}  // namespace

double single_core_energy(const Schedule& sched, const CorePower& power) {
  double e = 0.0;
  for (const auto& s : sched.segments()) {
    e += power.power(s.speed) * s.duration();
  }
  const GapCosts g = busy_span_gaps(sched, power);
  e += power.alpha * g.idle;
  e += g.per_state[0].transition_energy;
  return e;
}

SssResult solve_single_core_sleep(const std::vector<YdsJob>& jobs,
                                  const CorePower& power, int core) {
  SssResult res;
  const Schedule yds = yds_schedule(jobs, core);

  // Feasibility against s_up.
  for (const auto& seg : yds.segments()) {
    if (seg.speed > power.max_speed() * (1.0 + 1e-9)) return res;
  }

  // Raise sub-critical speeds to s_m, shrinking each segment toward its
  // start. Within a core the segments are disjoint and only end earlier,
  // so the result stays feasible (YDS never starts before a release).
  const double s_m = power.critical_speed_raw();
  for (const auto& seg : yds.segments()) {
    Segment s = seg;
    if (s_m > 0.0 && s.speed < s_m) {
      const double speed = std::min(s_m, power.max_speed());
      s.end = s.start + seg.work() / speed;
      s.speed = speed;
    }
    res.schedule.add(s);
  }

  res.feasible = true;
  res.energy = single_core_energy(res.schedule, power);
  const GapCosts g = busy_span_gaps(res.schedule, power);
  res.sleep_time = g.asleep;
  res.sleeps = static_cast<int>(g.sleeps);
  return res;
}

}  // namespace sdem
