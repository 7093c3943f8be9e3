// Task and task-set model (paper §3).
//
// A task T_i has release time r_i, deadline d_i and workload w_i (megacycles).
// The feasible region is [r_i, d_i]; the filled speed s_fi = w_i / (d_i - r_i)
// is the slowest speed that still meets the deadline when the task occupies
// its whole region. Tasks are non-preemptive and non-migrating in the offline
// schemes; the online simulator allows preemption (§6).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sdem {

struct Task {
  int id = 0;
  double release = 0.0;   ///< r_i, seconds
  double deadline = 0.0;  ///< d_i, seconds
  double work = 0.0;      ///< w_i, megacycles

  /// Length of the feasible region |I_i| = d_i - r_i.
  double region() const { return deadline - release; }

  /// Filled speed s_fi = w_i / |I_i| in MHz.
  double filled_speed() const;
};

/// The task rule of §3, the one every reader and solver applies: release,
/// deadline and work are finite, work >= 0, deadline > release, and the
/// window |I_i| and the filled speed are finite too. Returns "" for a valid
/// task, else the reason (the wire's wording, docs/service.md §2); only a
/// failing task builds a string.
std::string task_error(const Task& t);

/// A task id carried as a JSON number (the wire, fuzz reproducers): it must
/// be an integer of magnitude at most 2e9. Returns false, leaving `*id`
/// alone, for a fraction, a non-finite value or a larger magnitude.
bool task_id_from_number(double v, int* id);

/// Classification of a task set against the paper's task models.
enum class TaskModel {
  kCommonRelease,      ///< all r_i equal (individual deadlines) — §4
  kCommonReleaseDeadline,  ///< all r_i equal and all d_i equal — §3 (Thm 1)
  kAgreeable,          ///< r_i <= r_j implies d_i <= d_j — §5
  kGeneral,            ///< arbitrary — §6
};

/// A set of tasks plus the helpers every scheme needs.
class TaskSet {
 public:
  TaskSet() = default;
  explicit TaskSet(std::vector<Task> tasks);

  const std::vector<Task>& tasks() const { return tasks_; }
  std::size_t size() const { return tasks_.size(); }
  bool empty() const { return tasks_.empty(); }
  const Task& operator[](std::size_t i) const { return tasks_[i]; }

  void add(Task t);

  /// Drop all tasks but keep the capacity — for scratch task sets that are
  /// rebuilt every replan.
  void clear() { tasks_.clear(); }
  void reserve(std::size_t n) { tasks_.reserve(n); }

  /// Strictest model this set satisfies (common release+deadline is reported
  /// as kCommonReleaseDeadline, which also implies the other two).
  TaskModel classify() const;

  bool is_common_release() const;
  bool is_agreeable() const;

  /// Earliest release / latest deadline over the set. Undefined when empty.
  double min_release() const;
  double max_deadline() const;

  /// Total workload in megacycles.
  double total_work() const;

  /// Largest filled speed over the set (infeasibility check vs s_up).
  double max_filled_speed() const;

  /// The order of sorted_by_deadline(): (deadline, release, id).
  struct ByDeadline {
    bool operator()(const Task& a, const Task& b) const {
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
      if (a.release != b.release) return a.release < b.release;
      return a.id < b.id;
    }
  };

  /// The order of sorted_by_release(): (release, deadline, id).
  struct ByRelease {
    bool operator()(const Task& a, const Task& b) const {
      if (a.release != b.release) return a.release < b.release;
      if (a.deadline != b.deadline) return a.deadline < b.deadline;
      return a.id < b.id;
    }
  };

  /// Returns a copy sorted by ByDeadline.
  TaskSet sorted_by_deadline() const;

  /// Returns a copy sorted by ByRelease.
  TaskSet sorted_by_release() const;

  /// Validation: every task passes task_error(), and ids are unique.
  /// Returns an empty string when valid, else a diagnostic.
  std::string validate() const;

 private:
  std::vector<Task> tasks_;
};

/// Human-readable name of a task model (for diagnostics and tables).
std::string to_string(TaskModel m);

}  // namespace sdem
