// The one comparison of SDEM-ON, which plans every replan with the Section
// 7 solver, against its frozen-oracle twin (sim/sim_reference.*), shared by
// the differential fuzzer and the equivalence tests.
//
// Under transition overheads the frozen oracle golden-searches each piece of
// the Section 7 objective and places the memory end T only to about
// sqrt(eps) relative where the objective is flat; the solver takes the
// closed-form stationary point (docs/testing.md, "The Section 7 tolerance
// trade"). Without them the oracle plans with Section 4, whose closed form
// the solver's sweep reaches by other roundings. A whole run's energy
// is first-order in every replan's T, so two runs drift apart by rounding
// noise of either sign. The comparison is therefore made per replan, where
// no error accumulates: TwinPolicy hands each replan's input to both
// policies, drives the run with the first one's plan and records the first
// pair of plans that differ by more than
//   * a segment count, task id or core;
//   * a segment start or end beyond kS7TimeTol;
//   * a speed beyond what a kS7TimeTol change of the segment's length
//     explains, |ds| * length <= kS7TimeTol * speed: speed is remaining work
//     over length, so a time tolerance is also the natural speed tolerance
//     (a bare relative bound would have to grow without limit as segments
//     shorten).
// The event loop itself is pinned bit for bit elsewhere (the fuzzer's
// sim:loop-vs-reference, SimFastpath.LoopMatchesReferenceUnderProductionPolicies).
#pragma once

#include <string>
#include <vector>

#include "sim/policy.hpp"

namespace sdem::testing {

inline constexpr double kS7TimeTol = 1e-8;  ///< seconds

/// An OnlinePolicy that replans with `fast` and `ref` on the same
/// (now, pending, cfg) and returns `fast`'s plan unchanged, so a run through
/// the twin is the run through `fast`.
class TwinPolicy : public OnlinePolicy {
 public:
  TwinPolicy(OnlinePolicy& fast, OnlinePolicy& ref) : fast_(fast), ref_(ref) {}

  std::string name() const override { return fast_.name(); }
  void reset() override;
  std::vector<Segment> replan(double now,
                              const std::vector<PendingTask>& pending,
                              const SystemConfig& cfg) override;
  std::vector<Segment> replan_completion(
      double now, const std::vector<PendingTask>& pending,
      const SystemConfig& cfg) override;

  /// Empty while every plan matched; otherwise the first mismatch, kept
  /// across reset().
  const std::string& mismatch() const { return mismatch_; }

 private:
  void compare(const std::vector<Segment>& fast,
               const std::vector<Segment>& ref, double now, bool completion);

  OnlinePolicy& fast_;
  OnlinePolicy& ref_;
  int replans_ = 0;
  std::string mismatch_;
};

}  // namespace sdem::testing
