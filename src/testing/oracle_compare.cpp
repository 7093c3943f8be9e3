#include "testing/oracle_compare.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "sim/metrics.hpp"
#include "support/json.hpp"

namespace sdem::testing {

std::string compare_section7_runs(const SimResult& fast, const SimResult& ref,
                                  const SystemConfig& cfg, EnergyBound bound) {
  const auto num = [](double v) { return Json::number_to_string(v); };
  std::ostringstream why;
  if (fast.replans != ref.replans)
    why << "replans " << fast.replans << " vs " << ref.replans << "; ";
  if (fast.deadline_misses != ref.deadline_misses)
    why << "misses " << fast.deadline_misses << " vs " << ref.deadline_misses
        << "; ";
  if (fast.unfinished != ref.unfinished)
    why << "unfinished " << fast.unfinished << " vs " << ref.unfinished
        << "; ";
  if (fast.horizon_lo != ref.horizon_lo)
    why << "horizon_lo " << num(fast.horizon_lo) << " vs "
        << num(ref.horizon_lo) << "; ";
  if (std::abs(fast.horizon_hi - ref.horizon_hi) > kS7TimeTol)
    why << "horizon_hi " << num(fast.horizon_hi) << " vs "
        << num(ref.horizon_hi) << "; ";

  const auto& fs = fast.schedule.segments();
  const auto& rs = ref.schedule.segments();
  if (fs.size() != rs.size()) {
    why << "segments " << fs.size() << " vs " << rs.size() << "; ";
    return why.str();
  }
  for (std::size_t i = 0; i < fs.size(); ++i) {
    const Segment& f = fs[i];
    const Segment& r = rs[i];
    const double length = std::min(f.end - f.start, r.end - r.start);
    if (f.task_id != r.task_id || f.core != r.core) {
      why << "segment " << i << " runs task " << f.task_id << " on core "
          << f.core << " vs task " << r.task_id << " on core " << r.core
          << "; ";
    } else if (std::abs(f.start - r.start) > kS7TimeTol ||
               std::abs(f.end - r.end) > kS7TimeTol) {
      why << "segment " << i << " [" << num(f.start) << ", " << num(f.end)
          << "] vs [" << num(r.start) << ", " << num(r.end) << "]; ";
    } else if (std::abs(f.speed - r.speed) * length > kS7TimeTol * r.speed) {
      why << "segment " << i << " speed " << num(f.speed) << " vs "
          << num(r.speed) << "; ";
    }
  }

  const auto fe = evaluate_policy(fast, cfg, SleepDiscipline::kOptimal, "f");
  const auto re = evaluate_policy(ref, cfg, SleepDiscipline::kOptimal, "r");
  const double sys_f = fe.energy.system_total();
  const double sys_r = re.energy.system_total();
  if (sys_f > sys_r + kS7EnergyTol * std::abs(sys_r))
    why << "system energy " << num(sys_f) << " above the oracle's "
        << num(sys_r) << "; ";
  if (bound == EnergyBound::kWithin) {
    const double mem_f = fe.energy.memory_total();
    const double mem_r = re.energy.memory_total();
    if (sys_f < sys_r - kS7EnergyTol * std::abs(sys_r))
      why << "system energy " << num(sys_f) << " below the oracle's "
          << num(sys_r) << "; ";
    if (std::abs(mem_f - mem_r) > kS7EnergyTol * std::abs(mem_r))
      why << "memory energy " << num(mem_f) << " vs " << num(mem_r) << "; ";
  }
  return why.str();
}

}  // namespace sdem::testing
