// The one comparison of an online run against its frozen-oracle twin
// (sim/sim_reference.*) where SDEM-ON plans with the Section 7 solver,
// shared by the differential fuzzer and the equivalence tests.
//
// The frozen oracle golden-searches each piece of the Section 7 objective
// and places the memory end T only to about sqrt(eps) relative where the
// objective is flat; the solver takes the closed-form stationary point
// (docs/testing.md, "The Section 7 tolerance trade"). Those runs therefore
// match the oracle within tolerances instead of bit for bit:
//   * replans, misses, unfinished, horizon_lo, segment count, task ids and
//     cores exact (horizon_lo is the first release, which no plan moves);
//   * horizon_hi and every segment's start and end within kS7TimeTol;
//   * every segment's speed within what a kS7TimeTol change of its length
//     explains, |ds| * length <= kS7TimeTol * speed: speed is remaining work
//     over length, so a time tolerance is also the natural speed tolerance
//     (a bare relative bound would have to grow without limit as segments
//     shorten);
//   * system energy never above the oracle's by more than kS7EnergyTol
//     relative, and with EnergyBound::kWithin system and memory energy
//     within kS7EnergyTol of the oracle's either way.
#pragma once

#include <string>

#include "model/power.hpp"
#include "sim/event_sim.hpp"

namespace sdem::testing {

inline constexpr double kS7TimeTol = 1e-8;    ///< seconds
inline constexpr double kS7EnergyTol = 1e-9;  ///< relative

enum class EnergyBound {
  /// System energy at most kS7EnergyTol above the oracle's. The fuzzer's
  /// random configurations hold only this: the memory energy is first-order
  /// in T even per solve, and the oracle's T carries its rounding noise.
  kNeverWorse,
  /// kNeverWorse, and system and memory energy within kS7EnergyTol either
  /// way (the equivalence tests' paper-config traces).
  kWithin,
};

/// Empty when `fast` matches `ref` under the contract above; otherwise one
/// "; "-terminated reason per mismatch.
std::string compare_section7_runs(const SimResult& fast, const SimResult& ref,
                                  const SystemConfig& cfg, EnergyBound bound);

}  // namespace sdem::testing
