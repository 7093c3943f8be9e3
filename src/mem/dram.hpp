// DRAM power-state machine (the substrate behind the paper's memory model).
//
// The paper abstracts the main memory as: static power alpha_m while
// active, zero while asleep, one transition pair costing alpha_m * xi_m.
// Real DRAM (the 50nm parts the paper cites via CACTI, and the power-mode
// analysis of Fan/Ellis/Lebeck 2001) has a richer ladder:
//
//   ACTIVE_STANDBY      serving or ready to serve; full leakage + refresh
//   PRECHARGE_POWERDOWN clocks gated; fast exit; most leakage remains
//   SELF_REFRESH        on-die refresh only; slow exit; minimal power
//
// This module replays a schedule's memory busy/idle profile through that
// ladder under a pluggable power-management policy. Entering/exiting a
// low-power state costs energy and *time*: a state is only usable in a gap
// long enough to cover its entry+exit latency (otherwise the next access
// would stall — the schedulers above assume accesses are never delayed).
//
// `abstraction_for()` derives the (alpha_m, xi_m) pair that best represents
// a parameter set in the paper's model, and tests verify the abstraction
// tracks the machine.
#pragma once

#include <string>
#include <vector>

#include "sched/schedule.hpp"

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
};

enum class DramState { kActive, kPowerDown, kSelfRefresh };

std::string to_string(DramState s);

/// Decision a power-management policy makes for one idle gap.
struct GapDecision {
  DramState state = DramState::kActive;
};

/// Policy interface: choose a state for a gap of known length. The replay
/// clamps illegal choices (latency does not fit) back to kActive.
class DramPolicy {
 public:
  virtual ~DramPolicy() = default;
  virtual std::string name() const = 0;
  virtual GapDecision decide(double gap, const DramPowerParams& p) = 0;
};

/// Never leaves active/standby (the MBKP memory).
class NoPowerDownPolicy : public DramPolicy {
 public:
  std::string name() const override { return "no-power-down"; }
  GapDecision decide(double, const DramPowerParams&) override { return {}; }
};

/// Enters precharge power-down in every gap it fits in (common controller
/// default).
class ImmediatePowerDownPolicy : public DramPolicy {
 public:
  std::string name() const override { return "immediate-power-down"; }
  GapDecision decide(double gap, const DramPowerParams& p) override;
};

/// Energy-oracle: picks the feasible state minimizing the gap's energy
/// (state power * residency + pair energy) — the machine-level analogue of
/// the paper's break-even rule.
class OracleDramPolicy : public DramPolicy {
 public:
  std::string name() const override { return "oracle"; }
  GapDecision decide(double gap, const DramPowerParams& p) override;
};

struct DramEnergyResult {
  double active = 0.0;       ///< energy in active/standby (busy + idle)
  double powerdown = 0.0;    ///< energy while in power-down
  double selfrefresh = 0.0;  ///< energy while in self refresh
  double transition = 0.0;   ///< pair energies
  int powerdown_cycles = 0;
  int selfrefresh_cycles = 0;

  double total() const {
    return active + powerdown + selfrefresh + transition;
  }
};

/// Replay the memory busy profile of `sched` over [horizon_lo, horizon_hi]
/// (awake at both boundaries, as in sched/energy.hpp).
DramEnergyResult replay_dram(const Schedule& sched, const DramPowerParams& p,
                             DramPolicy& policy, double horizon_lo,
                             double horizon_hi);

/// The paper-model equivalent of a parameter set at a given low-power depth:
/// alpha_m = p_active - p_floor (the shedable leakage) and
/// xi_m = pair_energy / alpha_m (the break-even time). The non-shedable
/// floor p_floor * horizon is a policy-independent constant.
struct DramAbstraction {
  double alpha_m = 0.0;
  double xi_m = 0.0;
  double floor_power = 0.0;
};
DramAbstraction abstraction_for(const DramPowerParams& p,
                                DramState depth = DramState::kSelfRefresh);

}  // namespace sdem
