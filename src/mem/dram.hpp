// DRAM power states (the substrate behind the paper's memory model).
//
// The paper abstracts the main memory as: static power alpha_m while
// active, zero while asleep, one transition pair costing alpha_m * xi_m.
// Real DRAM (the 50nm parts the paper cites via CACTI, and the power-mode
// analysis of Fan/Ellis/Lebeck 2001) has a richer set of states:
//
//   ACTIVE_STANDBY      serving or ready to serve; full leakage + refresh
//   PRECHARGE_POWERDOWN clocks gated; fast exit; most leakage remains
//   SELF_REFRESH        on-die refresh only; slow exit; minimal power
//
// Those are a two-rung sleep ladder (model/sleep_ladder.hpp) over the
// active power: `DramPowerParams::memory()` returns it, and
// sched/energy.hpp's `add_memory_energy` charges a schedule's memory busy
// profile on it like any other memory. A state is usable only in a gap
// that covers its entry+exit latency (otherwise the next access would
// stall — the schedulers above assume accesses are never delayed), so the
// clairvoyant kOptimal discipline pays, per gap, the cheapest of idling
// awake and the states that fit. kNever is a controller that never powers
// down; kAlways on `ladder.prefix(1)` one that enters power-down in every
// gap.
//
// `abstraction_for()` derives the (alpha_m, xi_m) pair that best represents
// a parameter set in the paper's model, and tests verify the abstraction
// tracks the ladder.
#pragma once

#include "model/power.hpp"

namespace sdem {

struct DramPowerParams {
  // State powers, watts (whole device).
  double p_active = 4.0;        ///< active/standby (busy or idle-awake)
  double p_powerdown = 1.4;     ///< precharge power-down
  double p_selfrefresh = 0.25;  ///< self refresh

  // Entry + exit latencies, seconds (must fit inside the gap).
  double t_powerdown = 60e-9;     ///< tXP-ish: effectively instant
  double t_selfrefresh = 300e-6;  ///< tXSDLL-ish exit, scaled device-level

  // Per-transition-pair energies, joules (entry + exit).
  double e_powerdown = 0.002;
  double e_selfrefresh = 0.090;

  /// A 50nm-DRAM-flavored parameter set whose derived abstraction matches
  /// the paper's defaults (alpha_m ~ 4 W) at the self-refresh depth.
  static DramPowerParams paper_50nm();

  /// The device as a memory: alpha_m = p_active and the ladder
  /// {power-down, self-refresh}, each rung's break-even derived by
  /// SleepLadder::add_state. xi_m stays 0: the ladder replaces the single
  /// state.
  MemoryPower memory() const;
};

/// The paper-model equivalent of a parameter set at the self-refresh
/// depth: alpha_m = p_active - p_selfrefresh (the shedable leakage) and
/// xi_m = e_selfrefresh / alpha_m (the break-even time). The non-shedable
/// floor p_selfrefresh * horizon is a policy-independent constant.
struct DramAbstraction {
  double alpha_m = 0.0;
  double xi_m = 0.0;
  double floor_power = 0.0;
};
DramAbstraction abstraction_for(const DramPowerParams& p);

}  // namespace sdem
