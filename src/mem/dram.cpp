#include "mem/dram.hpp"

#include <algorithm>

#include "sched/energy.hpp"

namespace sdem {

DramPowerParams DramPowerParams::paper_50nm() {
  DramPowerParams p;
  p.p_active = 4.25;
  p.p_powerdown = 1.40;
  p.p_selfrefresh = 0.25;
  p.t_powerdown = 60e-9;
  p.t_selfrefresh = 300e-6;
  p.e_powerdown = 0.002;
  // Chosen so the derived break-even time lands in the paper's
  // 15..70 ms sweep: xi_m = e / (p_active - p_selfrefresh) = 40 ms.
  p.e_selfrefresh = 0.040 * (p.p_active - p.p_selfrefresh);
  return p;
}

std::string to_string(DramState s) {
  switch (s) {
    case DramState::kActive: return "active";
    case DramState::kPowerDown: return "power-down";
    case DramState::kSelfRefresh: return "self-refresh";
  }
  return "?";
}

namespace {

bool fits(DramState s, double gap, const DramPowerParams& p) {
  switch (s) {
    case DramState::kActive: return true;
    case DramState::kPowerDown: return gap >= p.t_powerdown;
    case DramState::kSelfRefresh: return gap >= p.t_selfrefresh;
  }
  return false;
}

double gap_energy(DramState s, double gap, const DramPowerParams& p) {
  switch (s) {
    case DramState::kActive: return p.p_active * gap;
    case DramState::kPowerDown: return p.p_powerdown * gap + p.e_powerdown;
    case DramState::kSelfRefresh:
      return p.p_selfrefresh * gap + p.e_selfrefresh;
  }
  return 0.0;
}

}  // namespace

GapDecision ImmediatePowerDownPolicy::decide(double gap,
                                             const DramPowerParams& p) {
  GapDecision d;
  if (fits(DramState::kPowerDown, gap, p)) d.state = DramState::kPowerDown;
  return d;
}

GapDecision OracleDramPolicy::decide(double gap, const DramPowerParams& p) {
  GapDecision d;
  double best = gap_energy(DramState::kActive, gap, p);
  for (DramState s : {DramState::kPowerDown, DramState::kSelfRefresh}) {
    if (!fits(s, gap, p)) continue;
    const double e = gap_energy(s, gap, p);
    if (e < best) {
      best = e;
      d.state = s;
    }
  }
  return d;
}

DramEnergyResult replay_dram(const Schedule& sched, const DramPowerParams& p,
                             DramPolicy& policy, double horizon_lo,
                             double horizon_hi) {
  DramEnergyResult out;
  const auto busy = sched.memory_busy();

  // Busy residency: always active.
  for (const auto& b : busy) {
    const double lo = std::max(b.lo, horizon_lo);
    const double hi = std::min(b.hi, horizon_hi);
    if (hi > lo) out.active += p.p_active * (hi - lo);
  }

  // Gaps (leading, interior, trailing) as sched/energy.hpp enumerates them.
  // The policy decides each one, not the ladder walk: OracleDramPolicy
  // breaks ties toward the shallower state, the walk toward the deeper.
  for (const IdleGap& gap : idle_gaps(busy, horizon_lo, horizon_hi).gaps) {
    const double g = gap.length;
    GapDecision d = policy.decide(g, p);
    if (!fits(d.state, g, p)) d.state = DramState::kActive;  // clamp illegal
    switch (d.state) {
      case DramState::kActive:
        out.active += p.p_active * g;
        break;
      case DramState::kPowerDown:
        out.powerdown += p.p_powerdown * g;
        out.transition += p.e_powerdown;
        ++out.powerdown_cycles;
        break;
      case DramState::kSelfRefresh:
        out.selfrefresh += p.p_selfrefresh * g;
        out.transition += p.e_selfrefresh;
        ++out.selfrefresh_cycles;
        break;
    }
  }
  return out;
}

DramAbstraction abstraction_for(const DramPowerParams& p, DramState depth) {
  DramAbstraction a;
  const double floor =
      depth == DramState::kSelfRefresh ? p.p_selfrefresh : p.p_powerdown;
  const double pair =
      depth == DramState::kSelfRefresh ? p.e_selfrefresh : p.e_powerdown;
  a.floor_power = floor;
  a.alpha_m = p.p_active - floor;
  a.xi_m = a.alpha_m > 0.0 ? pair / a.alpha_m : 0.0;
  return a;
}

}  // namespace sdem
