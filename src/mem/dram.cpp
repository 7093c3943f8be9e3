#include "mem/dram.hpp"

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

MemoryPower DramPowerParams::memory() const {
  MemoryPower m;
  m.alpha_m = p_active;
  m.ladder.add_state("power-down", p_powerdown, e_powerdown, t_powerdown,
                     p_active);
  m.ladder.add_state("self-refresh", p_selfrefresh, e_selfrefresh,
                     t_selfrefresh, p_active);
  return m;
}

DramAbstraction abstraction_for(const DramPowerParams& p) {
  DramAbstraction a;
  a.floor_power = p.p_selfrefresh;
  a.alpha_m = p.p_active - p.p_selfrefresh;
  a.xi_m = a.alpha_m > 0.0 ? p.e_selfrefresh / a.alpha_m : 0.0;
  return a;
}

}  // namespace sdem
