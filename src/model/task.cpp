#include "model/task.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

namespace sdem {

double Task::filled_speed() const {
  const double len = region();
  if (len <= 0.0) return std::numeric_limits<double>::infinity();
  return work / len;
}

std::string task_error(const Task& t) {
  if (!std::isfinite(t.release))
    return "task field \"release\" must be a finite number";
  if (!std::isfinite(t.deadline))
    return "task field \"deadline\" must be a finite number";
  if (!std::isfinite(t.work))
    return "task field \"work\" must be a finite number";
  if (t.work < 0.0) return "task field \"work\" must be >= 0";
  if (!(t.deadline > t.release))
    return "task \"deadline\" must be > \"release\"";
  // Finite fields can still overflow: a window from -1e308 to 1e308 is
  // inf long, and 1e308 Mcycles over half a second fill at inf.
  if (!std::isfinite(t.region()))
    return "task \"deadline\" - \"release\" must be finite";
  if (!std::isfinite(t.filled_speed()))
    return "task \"work\" / (\"deadline\" - \"release\") must be finite";
  return {};
}

bool task_id_from_number(double v, int* id) {
  if (!(std::abs(v) <= 2e9) || v != std::floor(v)) return false;
  *id = static_cast<int>(v);
  return true;
}

TaskSet::TaskSet(std::vector<Task> tasks) : tasks_(std::move(tasks)) {}

void TaskSet::add(Task t) { tasks_.push_back(t); }

bool TaskSet::is_common_release() const {
  if (tasks_.empty()) return true;
  const double r0 = tasks_.front().release;
  return std::all_of(tasks_.begin(), tasks_.end(),
                     [&](const Task& t) { return t.release == r0; });
}

bool TaskSet::is_agreeable() const {
  // r_i <= r_j implies d_i <= d_j for all pairs: equivalent to deadlines
  // being non-decreasing when sorted by (release, deadline).
  auto sorted = tasks_;
  std::sort(sorted.begin(), sorted.end(), ByRelease{});
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    // A strictly earlier release with a strictly later deadline breaks
    // agreeability (equal releases may have any deadline order).
    if (sorted[i - 1].release < sorted[i].release &&
        sorted[i - 1].deadline > sorted[i].deadline) {
      return false;
    }
  }
  return true;
}

TaskModel TaskSet::classify() const {
  if (is_common_release()) {
    const bool common_deadline =
        tasks_.empty() ||
        std::all_of(tasks_.begin(), tasks_.end(), [&](const Task& t) {
          return t.deadline == tasks_.front().deadline;
        });
    return common_deadline ? TaskModel::kCommonReleaseDeadline
                           : TaskModel::kCommonRelease;
  }
  if (is_agreeable()) return TaskModel::kAgreeable;
  return TaskModel::kGeneral;
}

double TaskSet::min_release() const {
  double v = std::numeric_limits<double>::infinity();
  for (const auto& t : tasks_) v = std::min(v, t.release);
  return v;
}

double TaskSet::max_deadline() const {
  double v = -std::numeric_limits<double>::infinity();
  for (const auto& t : tasks_) v = std::max(v, t.deadline);
  return v;
}

double TaskSet::total_work() const {
  double w = 0.0;
  for (const auto& t : tasks_) w += t.work;
  return w;
}

double TaskSet::max_filled_speed() const {
  double v = 0.0;
  for (const auto& t : tasks_) v = std::max(v, t.filled_speed());
  return v;
}

TaskSet TaskSet::sorted_by_deadline() const {
  auto copy = tasks_;
  std::sort(copy.begin(), copy.end(), ByDeadline{});
  return TaskSet(std::move(copy));
}

TaskSet TaskSet::sorted_by_release() const {
  auto copy = tasks_;
  std::sort(copy.begin(), copy.end(), ByRelease{});
  return TaskSet(std::move(copy));
}

std::string TaskSet::validate() const {
  std::set<int> ids;
  for (const auto& t : tasks_) {
    if (std::string err = task_error(t); !err.empty()) {
      return "task " + std::to_string(t.id) + ": " + err;
    }
    if (!ids.insert(t.id).second) {
      return "duplicate task id " + std::to_string(t.id);
    }
  }
  return {};
}

std::string to_string(TaskModel m) {
  switch (m) {
    case TaskModel::kCommonRelease: return "common-release";
    case TaskModel::kCommonReleaseDeadline: return "common-release+deadline";
    case TaskModel::kAgreeable: return "agreeable";
    case TaskModel::kGeneral: return "general";
  }
  return "?";
}

}  // namespace sdem
