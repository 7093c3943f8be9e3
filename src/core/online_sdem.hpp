// SDEM-ON: the paper's online heuristic for general tasks (§6).
//
// At every arrival, all unfinished tasks are re-released at `now` (remaining
// work, original deadlines) and the common-release optimal scheme of
// Section 4 (Section 7 when transition overheads are configured) computes
// each task's execution length p_j. The plan then procrastinates: memory and
// cores stay asleep until the first task hits its latest start d_j - p_j,
// at which point every pending task starts (step 6 of the paper's listing),
// maximizing the execution overlap and therefore the memory's common idle
// time. A new arrival before the wake point simply triggers a fresh replan.
//
// The scheme's unbounded-cores assumption meets reality in the per-core
// serializer: when two pending tasks share a core, they run back-to-back in
// EDF order, compressing (up to s_up) when the deadline demands it.
#pragma once

#include <vector>

#include "core/common_release_scratch.hpp"
#include "core/transition.hpp"
#include "sim/policy.hpp"
#include "support/id_slots.hpp"

namespace sdem {

/// Does SDEM-ON plan its replans with the Section 7 transition solver
/// (transition overheads configured) rather than a Section 4 scheme?
bool plans_with_transition(const SystemConfig& cfg);

class SdemOnPolicy : public OnlinePolicy {
 public:
  /// `procrastinate == false` disables step 5 (sleep until the first latest
  /// start) while keeping the per-replan optimal execution lengths: the
  /// batch starts immediately. Exists for the procrastination ablation —
  /// the gap between the two is exactly the value of aligning executions.
  explicit SdemOnPolicy(bool procrastinate = true)
      : procrastinate_(procrastinate) {}

  std::string name() const override {
    return procrastinate_ ? "SDEM-ON" : "SDEM-ON/eager";
  }

  std::vector<Segment> replan(double now,
                              const std::vector<PendingTask>& pending,
                              const SystemConfig& cfg) override;

  /// Completion-triggered replans recompute the optimal speeds for the
  /// remaining work but start immediately: the batch is already running, so
  /// re-procrastinating would split the memory busy interval.
  std::vector<Segment> replan_completion(
      double now, const std::vector<PendingTask>& pending,
      const SystemConfig& cfg) override;

 private:
  /// Buffers reused across replans so the per-arrival hot path allocates
  /// nothing in steady state. Per-task values are indexed by position in
  /// the replan's pending set, so they last one replan and never grow with
  /// the ids a run has seen.
  struct ReplanScratch {
    struct Item {
      double eff = 0.0;  ///< effective deadline (sort key)
      int pos = 0;       ///< position in the pending set
      const PendingTask* p = nullptr;
    };

    TaskSet virt;                      ///< re-released pending set
    PositionIndex by_id;               ///< task id -> pending position
    std::vector<double> eff_deadline;  ///< per-position effective deadline
    std::vector<double> dur;           ///< per-position execution length
    std::vector<int> cores;            ///< sorted-unique cores this replan
    std::vector<int> offsets;          ///< per-core group offsets into items
    std::vector<int> cursor;           ///< counting-sort placement cursors
    std::vector<Item> items;           ///< pending grouped by core
    TransitionWorkspace tw;            ///< §7 solver workspace
    CommonReleaseScratch cw;           ///< §4 solver workspaces
  };

  std::vector<Segment> plan(double now,
                            const std::vector<PendingTask>& pending,
                            const SystemConfig& cfg, bool procrastinate);

  bool procrastinate_ = true;
  ReplanScratch rs_;
};

}  // namespace sdem
