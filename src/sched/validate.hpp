// Schedule feasibility validation (paper §3).
//
// A feasible schedule: every task's workload is fully executed inside its
// feasible region [r_i, d_i], no two segments overlap on the same core,
// and every speed is positive and within the core's speed range. The offline
// schemes are additionally non-preemptive (one segment per task) and
// non-migrating (all of a task's segments on one core).
//
// The validator is the primary invariant of the differential fuzzer
// (src/testing/invariants.hpp), so it reports *every* violation it finds —
// not just the first — with enough structure (kind, task, core, time) for
// the shrinker to tell whether a reduced case still fails the same way.
#pragma once

#include <string>
#include <vector>

#include "model/power.hpp"
#include "model/task.hpp"
#include "sched/schedule.hpp"

namespace sdem {

/// The checks allow 1e-6 relative on executed workload and on the s_up
/// check, and 1e-9 s absolute on window and overlap checks.
struct ValidateOptions {
  bool require_non_preemptive = false;  ///< one contiguous run per task
  bool require_non_migrating = true;    ///< all segments of a task on 1 core
  bool enforce_speed_bounds = true;     ///< check speed <= s_up
  std::size_t max_violations = 16;      ///< stop collecting past this many
};

/// One feasibility violation, structured so callers can match on the class
/// of failure (the fuzz shrinker keeps only reductions that preserve the
/// original kind) and locate it in time.
struct ScheduleViolation {
  enum class Kind {
    kUnknownTask,      ///< segment references a task id not in the set
    kEmptySegment,     ///< end <= start
    kBadSpeed,         ///< speed <= 0 or speed > s_up (1 + 1e-6)
    kBeforeRelease,    ///< segment starts before the task's release
    kAfterDeadline,    ///< segment ends after the task's deadline
    kBadCore,          ///< negative core index
    kTooManyCores,     ///< bounded config exceeded
    kWorkMismatch,     ///< executed megacycles != w_i within tolerance
    kOverlap,          ///< two segments overlap on one core
    kMigration,        ///< task segments on more than one core
    kPreemption,       ///< gap between a task's segments
  };

  Kind kind = Kind::kEmptySegment;
  int task_id = -1;   ///< offending task (-1 when not task-specific)
  int core = -1;      ///< offending core (-1 when not core-specific)
  double at = 0.0;    ///< time the violation anchors to (0 when n/a)
  std::string message;  ///< human-readable detail
};

/// Short identifier for a violation kind ("overlap", "work-mismatch", ...).
std::string to_string(ScheduleViolation::Kind k);

struct ValidationResult {
  bool ok = false;
  std::string error;  ///< first violation's message; empty when ok
  std::vector<ScheduleViolation> violations;  ///< all (up to max_violations)

  explicit operator bool() const { return ok; }

  /// Every violation message, one per line (empty when ok).
  std::string describe() const;
};

/// Validate `sched` against `tasks` under `cfg`. Collects every violation
/// (up to opts.max_violations); `ok` iff none were found.
ValidationResult validate_schedule(const Schedule& sched, const TaskSet& tasks,
                                   const SystemConfig& cfg,
                                   const ValidateOptions& opts = {});

}  // namespace sdem
