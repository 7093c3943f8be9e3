#include "testing/gap_reference.hpp"

namespace sdem::testing {

ReferenceGaps reference_gaps(const std::vector<Interval>& busy,
                             double break_even, SleepDiscipline disc,
                             double horizon_lo, double horizon_hi) {
  ReferenceGaps out;
  auto sleep_for = [&](double g) {
    out.sleeps += 1.0;
    out.asleep += g;
    if (out.sleeps == 1.0 || g < out.sleep_min) out.sleep_min = g;
    if (g > out.sleep_max) out.sleep_max = g;
  };
  auto idle_for = [&](double g) { out.idle += g; };
  if (busy.empty()) {
    // A device that never runs: idle-awake across the horizon under kNever,
    // otherwise it sleeps through it (one cycle if the horizon is nonempty).
    if (horizon_hi > horizon_lo) {
      const double span = horizon_hi - horizon_lo;
      if (disc == SleepDiscipline::kNever) {
        idle_for(span);
      } else if (disc == SleepDiscipline::kAlways || span >= break_even) {
        sleep_for(span);
      } else {
        idle_for(span);
      }
    }
    return out;
  }

  auto consider = [&](double g) {
    if (g <= 0.0) return;
    switch (disc) {
      case SleepDiscipline::kNever:
        idle_for(g);
        break;
      case SleepDiscipline::kAlways:
        sleep_for(g);
        break;
      case SleepDiscipline::kOptimal:
      case SleepDiscipline::kGovernor:
        // Sleep iff the gap is at least the break-even time (with a free
        // transition, always sleep).
        if (break_even <= 0.0 || g >= break_even) {
          sleep_for(g);
        } else {
          idle_for(g);
        }
        break;
    }
  };

  if (horizon_hi > horizon_lo) {
    if (busy.front().lo > horizon_lo) consider(busy.front().lo - horizon_lo);
    if (horizon_hi > busy.back().hi) consider(horizon_hi - busy.back().hi);
  }
  for (std::size_t i = 1; i < busy.size(); ++i) {
    consider(busy[i].lo - busy[i - 1].hi);
  }
  return out;
}

EnergyBreakdown reference_energy(const Schedule& sched,
                                 const SystemConfig& cfg,
                                 SleepDiscipline memory_gaps,
                                 double horizon_lo, double horizon_hi) {
  EnergyBreakdown e;
  for (const auto& s : sched.segments()) {
    e.core_dynamic += cfg.core.dynamic_power(s.speed) * s.duration();
  }
  if (cfg.core.alpha > 0.0) {
    for (int c = 0; c < sched.cores_used(); ++c) {
      const auto busy = sched.core_busy(c);
      for (const auto& i : busy) e.core_static += cfg.core.alpha * i.length();
      const auto gaps = reference_gaps(busy, cfg.core.xi,
                                       SleepDiscipline::kOptimal, horizon_lo,
                                       horizon_hi);
      e.core_idle += cfg.core.alpha * gaps.idle;
      e.core_transition += cfg.core.alpha * cfg.core.xi * gaps.sleeps;
    }
  }
  const auto busy = sched.memory_busy();
  for (const auto& i : busy) e.memory_active += cfg.memory.alpha_m * i.length();
  const auto gaps = reference_gaps(busy, cfg.memory.xi_m, memory_gaps,
                                   horizon_lo, horizon_hi);
  e.memory_idle += cfg.memory.alpha_m * gaps.idle;
  e.memory_transition += cfg.memory.alpha_m * cfg.memory.xi_m * gaps.sleeps;
  e.memory_sleep_time = gaps.asleep;
  e.memory_sleep_cycles = gaps.sleeps;
  e.memory_sleep_min = gaps.sleep_min;
  e.memory_sleep_max = gaps.sleep_max;
  return e;
}

}  // namespace sdem::testing
