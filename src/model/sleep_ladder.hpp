// Multi-state memory sleep ladder (generalizes the paper's single sleep
// state; ROADMAP "multi-sleep-state memory" item).
//
// The paper models memory with one sleep state: zero power while asleep and
// a transition pair costing alpha_m * xi_m (break-even formulation, §3).
// Real DRAM/CPU idle management exposes a *ladder* of states — e.g. DDR3
// precharge power-down vs self-refresh, or cpuidle C-states — each with its
// own residency power, enter+exit energy and enter+exit latency. A deeper
// state saves more power per second asleep but costs more to enter and
// leave, so each state k has its own break-even time
//
//   xi[k] = pair_energy[k] / (alpha_m - power[k])
//
// against staying idle-awake at alpha_m: sleeping in state k through a gap
// of length g beats idling iff g >= xi[k].
//
// The single-state paper model is the exact depth=1 special case:
// `SleepLadder::single(alpha_m, xi_m)` stores power = 0, latency = 0,
// pair_energy = alpha_m * xi_m and — crucially — xi = xi_m *verbatim*
// rather than re-deriving it, so the gap walk of sched/energy.hpp on it
// reproduces the frozen single-state rule (testing/gap_reference.hpp) bit
// for bit. Core gaps, and memory gaps without a configured ladder, are
// charged through it.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sdem {

/// One rung of the sleep ladder.
struct SleepState {
  std::string name;          ///< label, e.g. "powerdown", "selfrefresh"
  double power = 0.0;        ///< residency power while in the state, W
  double pair_energy = 0.0;  ///< energy of one enter+exit transition pair, J
  double latency = 0.0;      ///< enter+exit latency of the pair, seconds
  double xi = 0.0;           ///< break-even vs idle-awake, seconds (stored)
};

/// An ordered ladder of sleep states, shallow (index 0) to deep (back()).
/// An empty ladder on MemoryPower stands for single(alpha_m, xi_m).
class SleepLadder {
 public:
  SleepLadder() = default;

  /// The paper's single sleep state as a depth-1 ladder. xi is stored as
  /// the given xi_m (not derived), pair_energy = alpha_m * xi_m, power and
  /// latency are zero.
  static SleepLadder single(double alpha_m, double xi_m);

  /// A synthetic depth-d ladder whose deepest state is exactly the paper's
  /// single state (power 0, break-even xi_m). Shallower rungs at fraction
  /// f = k/d of the depth have residency power alpha_m * (1 - f), break-even
  /// xi_m * f^2 and latency latency_scale * xi, mimicking the convex
  /// power/latency trade of real C-state tables.
  static SleepLadder geometric(double alpha_m, double xi_m, int depth,
                               double latency_scale = 0.05);

  /// Append a state, deriving xi = pair_energy / (alpha_m - power).
  void add_state(std::string name, double power, double pair_energy,
                 double latency, double alpha_m);

  /// Append a state with an explicitly stored xi (no derivation).
  void add_state_exact(SleepState s);

  bool empty() const { return states_.empty(); }
  int depth() const { return static_cast<int>(states_.size()); }
  const SleepState& state(int k) const {
    return states_[static_cast<std::size_t>(k)];
  }
  const std::vector<SleepState>& states() const { return states_; }

  /// A ladder containing only the first `d` rungs (for depth sweeps).
  SleepLadder prefix(int d) const;

  /// Empty string when the ladder is well formed against active power
  /// alpha_m; else a human-readable reason. Checks: every state has
  /// 0 <= power < alpha_m, pair_energy > 0, latency >= 0, xi > 0; along
  /// the ladder power is strictly decreasing and xi strictly increasing
  /// (otherwise a rung is dominated and the ladder is ill-formed), and
  /// latency is non-decreasing.
  std::string validate(double alpha_m) const;

  /// Deepest state k with xi[k] <= gap and latency[k] <= gap; -1 if no
  /// state fits (stay awake). This is the governor's selection rule.
  int deepest_fit(double gap) const;

  /// Clairvoyant per-gap optimum: among states with xi[k] <= gap (or
  /// xi[k] <= 0) and latency[k] <= gap, the one minimizing
  /// power[k] * gap + pair_energy[k]; ties prefer the deeper state. -1 when
  /// no state beats idle-awake. At depth 1 this reduces exactly to the
  /// paper's rule "sleep iff xi <= 0 or gap >= xi".
  int oracle_state(double gap) const;

 private:
  std::vector<SleepState> states_;
};

}  // namespace sdem
