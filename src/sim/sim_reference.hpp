// Frozen pre-optimization implementations of the online simulation stack,
// kept verbatim as golden oracles for the allocation-free hot path (see
// tests/test_sim_fastpath.cpp). Everything here trades speed for
// obviousness: std::map-keyed state, per-call copies and sorts, per-probe
// config reads — exactly the code the optimized path must reproduce bit for
// bit. Do not "improve" this file; its value is that it never changes.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/event_sim.hpp"
#include "sim/policy.hpp"

namespace sdem {

/// SDEM-ON as originally written: virtual task set, effective-deadline and
/// duration std::maps rebuilt every replan, map-driven per-core EDF groups.
class SdemOnReferencePolicy : public OnlinePolicy {
 public:
  explicit SdemOnReferencePolicy(bool procrastinate = true)
      : procrastinate_(procrastinate) {}

  std::string name() const override {
    return procrastinate_ ? "SDEM-ON/reference" : "SDEM-ON/eager/reference";
  }

  std::vector<Segment> replan(double now,
                              const std::vector<PendingTask>& pending,
                              const SystemConfig& cfg) override;
  std::vector<Segment> replan_completion(
      double now, const std::vector<PendingTask>& pending,
      const SystemConfig& cfg) override;

 private:
  std::vector<Segment> plan(double now,
                            const std::vector<PendingTask>& pending,
                            const SystemConfig& cfg, bool procrastinate);

  bool procrastinate_ = true;
};

/// MBKP as originally written: map-keyed core assignments and class cursors,
/// per-replan queue vectors, copying oa_plan.
class MbkpReferencePolicy : public OnlinePolicy {
 public:
  std::string name() const override { return "MBKP/reference"; }

  std::vector<Segment> replan(double now,
                              const std::vector<PendingTask>& pending,
                              const SystemConfig& cfg) override;

 private:
  std::map<int, int> core_of_;
  std::map<int, int> class_cursor_;
};

/// The arrival loop as originally written (finished_at map, per-segment
/// linear pending scans). Does not call policy.reset(): the original had no
/// such hook. The completion-driven loop of slack reclamation has no frozen
/// copy: simulate_with_actuals() drives StreamSim, the one loop this
/// function pins on arrival-only runs.
SimResult simulate_reference(const TaskSet& arrivals, const SystemConfig& cfg,
                             OnlinePolicy& policy);

}  // namespace sdem
