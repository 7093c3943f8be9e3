// Predictive memory idle governor (menu/TEO-style; ROADMAP "predictive
// idle governor" item, Linux cpuidle analogue).
//
// The clairvoyant kOptimal discipline sees each gap's true length before
// deciding. A real power manager does not: it must commit to a sleep state
// when the gap *starts*. The governor predicts the upcoming gap from the
// history of gaps it has already observed, then applies the selection rule
// "deepest state whose break-even (and enter+exit latency) fits the
// prediction".
//
// Predictor, per governor (= per memory island):
//
//  * Unimodal path — an EWMA of observed gap lengths (the newest gap
//    weighs 1/4) with TEO's intercept correction: when a majority of the
//    recent 8 gaps came in shorter than the EWMA predicts, the average is
//    being dragged up by stale long gaps and the recent window's median is
//    used instead. Both are constants (kEwmaWeight, kWindow in
//    governor.cpp); every class EWMA below uses the same weight.
//
//  * Bimodal path — bursty traces interleave runs of tiny gaps with long
//    quiet gaps; a single average predicts neither. Gaps are classified
//    short/long against the deepest break-even time of the ladder last
//    seen by choose_state (the operative question: "could a deep sleep
//    have paid off?"), each class keeps its own EWMA, and a run-length
//    detector — an EWMA of how many short gaps arrive between long ones —
//    predicts "long" exactly when the current short-run has reached the
//    learned burst length (the adaptive-learning-tree idea from the DPM
//    literature, reduced to run counting).
//
//  * Mispredict correction — an abort (gap shorter than the chosen
//    state's enter+exit pair) immediately clamps the running average down
//    to that gap, so one bad commitment cannot keep over-predicting.
//
// Determinism contract (docs/governor.md): decisions are a pure function
// of the (choose_state, observe) call sequence — no clocks, no randomness
// — so any accounting that feeds gaps in chronological order is
// bit-reproducible at any --jobs, provided each parallel unit owns
// its own governor.
#pragma once

#include <vector>

#include "sched/energy.hpp"

namespace sdem {

/// Online sleep-state selector: per-class EWMA + recent-interval window
/// predictor with burst-run detection and the deepest-fit selection rule.
class IdleGovernor final : public MemoryGapGovernor {
 public:
  IdleGovernor();

  /// Predicted length of the next gap; 0 before the first observation.
  double predict() const;

  /// MemoryGapGovernor: deepest state whose xi and latency both fit the
  /// prediction; the deepest state outright before any history exists
  /// (hardware boots asleep — the first-gap downside is one abort pair,
  /// the upside is the whole leading gap).
  int choose_state(const SleepLadder& ladder) override;
  void observe(double gap, bool aborted) override;
  /// Timeline journal hook: the prediction the latest choose_state acted
  /// on (predict() is pure, so querying it never perturbs decisions).
  double predict_gap() const override { return predict(); }

  double observed() const { return static_cast<double>(count_); }
  double mispredict_clamps() const { return clamps_; }

 private:
  double unimodal_predict() const;

  long count_ = 0;
  double clamps_ = 0.0;

  // Unimodal path.
  double ewma_ = 0.0;           ///< EWMA over all gaps
  std::vector<double> ring_;    ///< last kWindow gaps, ring-indexed
  std::size_t ring_next_ = 0;   ///< next slot to overwrite
  std::size_t ring_size_ = 0;   ///< filled entries (<= kWindow)
  mutable std::vector<double> scratch_;  ///< median workspace

  // Bimodal path: short/long split at the deepest break-even of the
  // ladder last presented to choose_state.
  double tau_ = 0.0;            ///< class boundary (deepest xi); 0 = unset
  double ewma_short_ = 0.0;
  long n_short_ = 0;
  double ewma_long_ = 0.0;
  long n_long_ = 0;
  double run_ = 0.0;            ///< short gaps since the last long gap
  double run_len_ewma_ = 0.0;   ///< learned short-run (burst) length
  bool run_seen_ = false;       ///< a run has completed at least once
  int last_class_ = -1;         ///< -1 none, 0 short, 1 long
  double p_long_after_long_ = 0.0;  ///< EWMA of [long follows long]
};

}  // namespace sdem
