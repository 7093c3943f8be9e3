// MBKP baseline (paper §8): multi-core online DVS scheduling in the style of
// Albers, Müller and Schmelzer (2007) — the comparator the paper evaluates
// against.
//
// Tasks are partitioned across cores by density classes: class(T) =
// floor(log2(w / (d - r))), round-robin within each class, so cores receive
// similar mixes of "steep" and "shallow" jobs. Each core then runs Optimal
// Available speed scaling over its own queue. MBKP is energy-aware for the
// cores but ignorant of the shared memory: it neither aligns busy intervals
// nor sleeps the memory.
//
// The paper derives two comparators from this schedule:
//   MBKP  — memory never sleeps  (SleepDiscipline::kNever)
//   MBKPS — memory sleeps in any idle gap it happens to get
//           (SleepDiscipline::kOptimal accounting over the same schedule;
//           gaps below the break-even time stay idle-awake — sleeping them
//           would cost more than idling, and MBKPS is naive about creating
//           gaps, not about using them)
// Both reuse this policy's schedule; the discipline is applied at
// accounting time (see sim/metrics.hpp).
#pragma once

#include <vector>

#include "baseline/oa.hpp"
#include "sim/policy.hpp"
#include "support/id_slots.hpp"

namespace sdem {

class MbkpPolicy : public OnlinePolicy {
 public:
  std::string name() const override { return "MBKP"; }

  /// Drops all task->core assignments and round-robin cursors. Without this
  /// a second run on the same policy object inherits the previous trace's
  /// core map — stale for any reused task id.
  void reset() override;

  std::vector<Segment> replan(double now,
                              const std::vector<PendingTask>& pending,
                              const SystemConfig& cfg) override;

 private:
  /// Round-robin cursor of a density class (classes are small signed ints:
  /// floor(log2(density)) with density clamped to [1e-12, DBL_MAX], so in
  /// [-40, 1023]). Stored as a flat array over [base_, base_ + size).
  int& cursor_for(int klass);

  IdSlots task_slots_;                ///< task id -> dense slot
  std::vector<int> core_of_;          ///< per-slot assigned core (-1 = none)
  std::vector<int> class_cursors_;    ///< flat cursor array
  int class_base_ = 0;                ///< klass of class_cursors_[0]
  std::vector<std::vector<OaJob>> queues_;  ///< per-core queues, reused
};

}  // namespace sdem
