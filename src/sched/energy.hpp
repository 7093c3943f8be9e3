// Energy accounting (paper §3, §7).
//
// Model: a device (core or memory) is awake at both horizon boundaries (the
// system is on before the task set arrives and after it completes). While
// awake it burns static power (alpha / alpha_m); while executing, a core
// additionally burns dynamic power beta * s^lambda. Between busy intervals a
// device may stay idle-awake (static power for the whole gap) or take a
// sleep cycle: sleep is free but the transition pair costs
// static_power * break_even (paper's break-even-time formulation). With a
// zero break-even time, sleeping is free and instantaneous, which recovers
// the Section 3 model where idle cores and sleeping memory cost nothing.
//
// Every idle gap goes through one walk (`account_idle_gaps` is its kOptimal,
// metric-free entry point) under a sleep ladder (model/sleep_ladder.hpp):
// per-state residency power, per-state transition pairs, and an abort path
// for gaps shorter than the chosen state's enter+exit latency. The paper's
// single sleep state is the depth-1 ladder
// `SleepLadder::single(static_power, break_even)`: each core's gaps are
// charged through it, and so is the memory's unless `cfg.memory.ladder` is
// set.
//
// The memory half of compute_energy is exposed as `add_memory_energy`, the
// one memory charge: the rank-granular memory (mem/ranks.hpp), the
// access-phase busy profile (model/access.hpp) and the DRAM power-down /
// self-refresh ladder (mem/dram.hpp) are all charged through it.
//
// Gap disciplines:
//   kNever    — idle-awake through every gap (MBKP's memory)
//   kAlways   — sleep through every gap, however short, in the deepest
//               state (MBKPS's memory)
//   kOptimal  — the clairvoyant per-gap energy minimum; on the single
//               state, sleep iff the gap length >= the break-even time
//   kGovernor — a MemoryGapGovernor predicts each gap online and picks a
//               ladder state before seeing the gap's true length
//
// Leading and trailing gaps (horizon edge to first/last busy interval) are
// gaps like any other when a horizon is given; otherwise the horizon
// defaults to the busy span and they are empty.
#pragma once

#include <vector>

#include "model/power.hpp"
#include "sched/schedule.hpp"

namespace sdem {

/// How a device treats an idle gap between busy intervals.
enum class SleepDiscipline {
  kNever,
  kAlways,
  kOptimal,
  kGovernor,
};

/// Online sleep-state selector for memory idle gaps. Implementations live
/// above the sched layer (src/sim/governor.*); energy accounting calls
/// `choose_state` once per gap in chronological order, then feeds the true
/// gap back via `observe` so the predictor can learn. Decisions must be a
/// pure function of the observation history for determinism.
class MemoryGapGovernor {
 public:
  virtual ~MemoryGapGovernor() = default;
  /// Ladder state to enter for the upcoming gap; -1 = stay idle-awake.
  virtual int choose_state(const SleepLadder& ladder) = 0;
  /// Feedback after the gap: its true length, and whether the chosen state
  /// had to be aborted (gap shorter than the state's enter+exit latency).
  virtual void observe(double gap, bool aborted) = 0;
  /// Predicted length of the gap backing the latest choose_state, for the
  /// power-timeline journal (obs/timeline.hpp); < 0 = no prediction
  /// exposed. Purely observational — accounting never branches on it.
  virtual double predict_gap() const { return -1.0; }
};

/// Per-ladder-state accounting (parallel to SleepLadder::states()).
struct SleepStateBreakdown {
  double sleep_time = 0.0;         ///< residency time in the state, s
  double cycles = 0.0;             ///< completed sleep cycles
  double aborts = 0.0;             ///< entries aborted before break-even fit
  double mispredicts = 0.0;        ///< committed cycles with gap < xi[k]
  double residency_energy = 0.0;   ///< power[k] * sleep_time
  double transition_energy = 0.0;  ///< pair_energy[k] * (cycles + aborts)
};

/// Sums of one device's gap walk.
struct GapCosts {
  double idle = 0.0;          ///< time spent idle-awake in gaps
  double sleeps = 0.0;        ///< completed sleep cycles (all states)
  double asleep = 0.0;        ///< time spent in some sleep state
  double sleep_min = 0.0;     ///< shortest single sleep interval (0 when none)
  double sleep_max = 0.0;     ///< longest single sleep interval
  double exit_latency = 0.0;  ///< sum of enter+exit latencies taken
  double mispredicts = 0.0;   ///< slept in a state whose xi exceeds the gap
  double aborts = 0.0;        ///< entries cut short before the pair fit
  std::vector<SleepStateBreakdown> per_state;  ///< parallel to the ladder
};

/// The gap walk. Decides every idle gap of `busy` (sorted, merged) under
/// `ladder` in chronological order, then folds the sums leading gap first,
/// trailing gap second, then the internal gaps in order. The gaps lie
/// between consecutive busy intervals and, when horizon_hi > horizon_lo,
/// from horizon_lo to the first and from the last to horizon_hi (the whole
/// horizon when `busy` is empty). This entry point takes the clairvoyant
/// kOptimal decision (SleepLadder::oracle_state) and records no metrics;
/// add_memory_energy runs the same walk under any SleepDiscipline, asking a
/// governor once per gap and then telling it the gap's true length.
///
/// Per-gap semantics for a chosen state k:
///   gap <  latency[k]  — abort: the pair doesn't fit; the gap is charged
///                        idle-awake and the pair energy is still paid.
///   gap >= latency[k]  — a completed cycle: residency power[k] for the
///                        whole gap plus the pair energy; counted as a
///                        mispredict when gap < xi[k] (the state loses to
///                        idling, but the decision was already taken).
GapCosts account_idle_gaps(const std::vector<Interval>& busy,
                           const SleepLadder& ladder, double horizon_lo,
                           double horizon_hi);

struct EnergyBreakdown {
  double core_dynamic = 0.0;      ///< beta * s^lambda * time
  double core_static = 0.0;       ///< alpha * execution time
  double core_idle = 0.0;         ///< alpha * idle-awake gap time
  double core_transition = 0.0;   ///< alpha * xi per sleep cycle
  double memory_active = 0.0;     ///< alpha_m * busy time
  double memory_idle = 0.0;       ///< alpha_m * idle-awake gap time
  double memory_transition = 0.0; ///< pair energy per sleep cycle or abort
  double memory_sleep_time = 0.0; ///< total time the memory spends asleep

  // Memory sleep-interval statistics (paper §3's central quantity): how
  // many sleep cycles the discipline took and the shortest/longest single
  // interval. Zero when the memory never sleeps.
  double memory_sleep_cycles = 0.0;
  double memory_sleep_min = 0.0;
  double memory_sleep_max = 0.0;

  // Ladder extras; all zero on the paper's single state, whose residency
  // power and latency are zero, except mispredicts under kAlways.
  double memory_sleep_residency = 0.0;  ///< sum of power[k] * time-in-state
  double memory_exit_latency = 0.0;     ///< time inside enter/exit pairs
  double governor_mispredicts = 0.0;    ///< slept in a state with xi > gap
  double governor_aborts = 0.0;         ///< woken before the pair completed
  /// Per-state residency/cycles/energy, parallel to the memory's ladder
  /// (one row for the single state).
  std::vector<SleepStateBreakdown> memory_states;

  /// Mean sleep-interval length (0 when the memory never sleeps).
  double memory_sleep_mean() const {
    return memory_sleep_cycles > 0.0 ? memory_sleep_time / memory_sleep_cycles
                                     : 0.0;
  }

  double core_total() const {
    return core_dynamic + core_static + core_idle + core_transition;
  }
  double memory_total() const {
    return memory_active + memory_idle + memory_transition +
           memory_sleep_residency;
  }
  double system_total() const { return core_total() + memory_total(); }
};

struct EnergyOptions {
  SleepDiscipline memory_gaps = SleepDiscipline::kOptimal;
  /// Accounting horizon; when hi <= lo it defaults to the schedule's busy
  /// span (leading/trailing gaps empty).
  double horizon_lo = 0.0;
  double horizon_hi = 0.0;
  /// Required when memory_gaps == kGovernor; consulted once per memory gap
  /// in chronological order. Not owned. Null + kGovernor falls back to
  /// kOptimal.
  MemoryGapGovernor* governor = nullptr;
  /// Power-timeline labeling (obs/timeline.hpp): the memory island this
  /// accounting covers and a display label for its decision track. Only
  /// read while the timeline is recording; never affects the numerics.
  int timeline_island = 0;
  const char* timeline_label = "";
};

/// The memory half of compute_energy. Charges the memory busy profile
/// `busy` (sorted, merged) under `memory` — its ladder, or
/// `SleepLadder::single(alpha_m, xi_m)` when the ladder is empty — and
/// `opts`, and adds the result into `e`'s memory fields: energies, sleep
/// time and cycles, exit latency, mispredicts and aborts are summed, the
/// sleep-interval min/max merged, and `memory_states` summed row by row
/// (so every call into one breakdown must use ladders of the same depth).
/// Records the `energy/*` gauges and, while the power timeline records,
/// journals ladder and governor walks.
void add_memory_energy(const std::vector<Interval>& busy,
                       const MemoryPower& memory, const EnergyOptions& opts,
                       EnergyBreakdown& e);

/// Full accounting of `sched` under `cfg`. Core gaps always take the
/// kOptimal discipline; the memory is charged by add_memory_energy.
EnergyBreakdown compute_energy(const Schedule& sched, const SystemConfig& cfg,
                               const EnergyOptions& opts = {});

/// Convenience: system-wide total.
double system_energy(const Schedule& sched, const SystemConfig& cfg,
                     const EnergyOptions& opts = {});

}  // namespace sdem
