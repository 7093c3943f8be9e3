#include "baseline/mbkp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.hpp"

namespace sdem {

void MbkpPolicy::reset() {
  last_ids_.clear();
  last_cores_.clear();
  class_cursors_.clear();
  class_base_ = 0;
  for (auto& q : queues_) q.clear();
}

int& MbkpPolicy::cursor_for(int klass) {
  if (class_cursors_.empty()) {
    class_base_ = klass;
    class_cursors_.push_back(0);
  } else if (klass < class_base_) {
    class_cursors_.insert(class_cursors_.begin(), class_base_ - klass, 0);
    class_base_ = klass;
  } else if (klass >= class_base_ + static_cast<int>(class_cursors_.size())) {
    class_cursors_.resize(klass - class_base_ + 1, 0);
  }
  return class_cursors_[klass - class_base_];
}

std::vector<Segment> MbkpPolicy::replan(double now,
                                        const std::vector<PendingTask>& pending,
                                        const SystemConfig& cfg) {
  SDEM_OBS_TIMER("mbkp/replan");
  SDEM_OBS_INC("mbkp/replans");
  SDEM_OBS_COUNT("mbkp/tasks_replanned", pending.size());
  const int cores = cfg.num_cores > 0 ? cfg.num_cores
                                      : static_cast<int>(pending.size());

  // Assign new tasks: round-robin inside their density class. A task that
  // was pending at the last replan keeps its core.
  next_cores_.clear();
  for (const auto& p : pending) {
    if (const int last = last_ids_.find(p.task.id); last >= 0) {
      next_cores_.push_back(last_cores_[static_cast<std::size_t>(last)]);
      continue;
    }
    SDEM_OBS_INC("mbkp/tasks_assigned");
    // Density has no upper bound (1e308 Mcycles over half a second is
    // inf), so it is clamped to a finite range before the class is cast to
    // int; NaN takes the lowest class. Finite densities keep their class.
    const double density = std::fmin(
        std::fmax(p.task.work / std::max(p.task.region(), 1e-12), 1e-12),
        std::numeric_limits<double>::max());
    const int klass = static_cast<int>(std::floor(std::log2(density)));
    int& cursor = cursor_for(klass);
    next_cores_.push_back(cursor % std::max(cores, 1));
    ++cursor;
  }
  last_ids_.rebuild(pending.size(),
                    [&](std::size_t i) { return pending[i].task.id; });
  last_cores_.swap(next_cores_);

  // Per-core Optimal Available over the core's own queue. With unbounded
  // cores the pending set (and hence `cores`) can shrink between replans
  // while an old task keeps a higher core id, so the queue array tracks the
  // highest core ever assigned rather than the instantaneous core count.
  const std::size_t nqueues = static_cast<std::size_t>(std::max(cores, 1));
  if (queues_.size() < nqueues) queues_.resize(nqueues);
  for (auto& q : queues_) q.clear();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const PendingTask& p = pending[i];
    queues_[static_cast<std::size_t>(last_cores_[i])].push_back(
        OaJob{p.task.id, p.task.deadline, p.remaining});
  }
  std::vector<Segment> plan;
  for (std::size_t c = 0; c < queues_.size(); ++c) {
    if (queues_[c].empty()) continue;
    // The queue is rebuilt next replan, so OA may reorder it in place.
    oa_plan_into(now, queues_[c], static_cast<int>(c), cfg.core.s_up,
                 cfg.core.s_min, plan);
  }
  return plan;
}

}  // namespace sdem
