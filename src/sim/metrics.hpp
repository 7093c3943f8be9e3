// Evaluation metrics and the three-way comparison harness (paper §8).
//
// Every figure in the paper compares SDEM-ON and MBKPS against MBKP on the
// same arrival trace:
//   saving(X) = (E_MBKP - E_X) / E_MBKP.
// run_comparison simulates both policies once and accounts the MBKP
// schedule twice (never-sleep vs sleep-when-idle memory) to produce all
// three columns.
#pragma once

#include <string>

#include "baseline/mbkp.hpp"
#include "core/online_sdem.hpp"
#include "sched/energy.hpp"
#include "sim/event_sim.hpp"

namespace sdem {

struct PolicyEval {
  std::string policy;
  EnergyBreakdown energy;
  double memory_sleep_time = 0.0;
  int deadline_misses = 0;
  int unfinished = 0;
};

/// Account a finished simulation under a memory gap discipline (cores are
/// always kOptimal; with xi == 0 idle cores are free, the §3 model).
/// `governor` is consulted per memory gap when the discipline is
/// kGovernor (see sim/governor.hpp); ignored otherwise.
PolicyEval evaluate_policy(const SimResult& sim, const SystemConfig& cfg,
                           SleepDiscipline memory_discipline,
                           const std::string& name,
                           MemoryGapGovernor* governor = nullptr);

struct Comparison {
  PolicyEval mbkp;   ///< MBKP schedule, memory never sleeps
  PolicyEval mbkps;  ///< MBKP schedule, memory sleeps in its idle gaps
  PolicyEval sdem;   ///< SDEM-ON schedule, memory sleeps in its idle gaps

  /// (E_MBKP - E_X) / E_MBKP, system-wide.
  double system_saving_mbkps() const;
  double system_saving_sdem() const;
  /// Same ratio on the memory-only component (Fig. 6a).
  double memory_saving_mbkps() const;
  double memory_saving_sdem() const;
  /// SDEM-ON saving minus MBKPS saving (Figs. 7a/7b plot this improvement).
  double improvement() const {
    return system_saving_sdem() - system_saving_mbkps();
  }
};

/// Simulate both policies on `arrivals` and account all three comparators.
Comparison run_comparison(const TaskSet& arrivals, const SystemConfig& cfg);

}  // namespace sdem
