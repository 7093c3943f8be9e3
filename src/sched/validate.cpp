#include "sched/validate.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace sdem {
namespace {

using Kind = ScheduleViolation::Kind;

constexpr double kWorkTol = 1e-6;   ///< relative, on executed workload
constexpr double kTimeTol = 1e-9;   ///< absolute (s), window/overlap checks
constexpr double kSpeedTol = 1e-6;  ///< relative, on the s_up check

/// Accumulates violations up to the configured cap.
class Collector {
 public:
  explicit Collector(std::size_t cap) : cap_(cap) {}

  bool full() const { return list_.size() >= cap_; }

  void add(Kind kind, int task_id, int core, double at,
           const std::string& message) {
    if (full()) return;
    list_.push_back({kind, task_id, core, at, message});
  }

  std::vector<ScheduleViolation> take() { return std::move(list_); }

 private:
  std::size_t cap_;
  std::vector<ScheduleViolation> list_;
};

}  // namespace

std::string to_string(ScheduleViolation::Kind k) {
  switch (k) {
    case Kind::kUnknownTask:
      return "unknown-task";
    case Kind::kEmptySegment:
      return "empty-segment";
    case Kind::kBadSpeed:
      return "bad-speed";
    case Kind::kBeforeRelease:
      return "before-release";
    case Kind::kAfterDeadline:
      return "after-deadline";
    case Kind::kBadCore:
      return "bad-core";
    case Kind::kTooManyCores:
      return "too-many-cores";
    case Kind::kWorkMismatch:
      return "work-mismatch";
    case Kind::kOverlap:
      return "overlap";
    case Kind::kMigration:
      return "migration";
    case Kind::kPreemption:
      return "preemption";
  }
  return "unknown";
}

std::string ValidationResult::describe() const {
  std::string out;
  for (const auto& v : violations) {
    if (!out.empty()) out += '\n';
    out += to_string(v.kind);
    out += ": ";
    out += v.message;
  }
  return out;
}

ValidationResult validate_schedule(const Schedule& sched, const TaskSet& tasks,
                                   const SystemConfig& cfg,
                                   const ValidateOptions& opts) {
  Collector out(opts.max_violations);

  std::map<int, const Task*> by_id;
  for (const auto& t : tasks.tasks()) by_id[t.id] = &t;

  // Segment sanity + window containment.
  for (const auto& s : sched.segments()) {
    std::ostringstream err;
    auto it = by_id.find(s.task_id);
    if (it == by_id.end()) {
      err << "segment references unknown task id " << s.task_id;
      out.add(Kind::kUnknownTask, s.task_id, s.core, s.start, err.str());
      continue;  // remaining checks need the task
    }
    const Task& t = *it->second;
    if (s.end <= s.start) {
      err << "task " << s.task_id << ": empty segment [" << s.start << ", "
          << s.end << "]";
      out.add(Kind::kEmptySegment, s.task_id, s.core, s.start, err.str());
    }
    if (s.speed <= 0.0) {
      err.str({});
      err << "task " << s.task_id << ": non-positive speed " << s.speed;
      out.add(Kind::kBadSpeed, s.task_id, s.core, s.start, err.str());
    } else if (opts.enforce_speed_bounds && cfg.core.s_up > 0.0 &&
               s.speed > cfg.core.s_up * (1.0 + kSpeedTol)) {
      err.str({});
      err << "task " << s.task_id << ": speed " << s.speed << " exceeds s_up "
          << cfg.core.s_up;
      out.add(Kind::kBadSpeed, s.task_id, s.core, s.start, err.str());
    }
    if (s.start < t.release - kTimeTol) {
      err.str({});
      err << "task " << s.task_id << ": starts at " << s.start
          << " before release " << t.release;
      out.add(Kind::kBeforeRelease, s.task_id, s.core, s.start, err.str());
    }
    if (s.end > t.deadline + kTimeTol) {
      err.str({});
      err << "task " << s.task_id << ": ends at " << s.end
          << " after deadline " << t.deadline;
      out.add(Kind::kAfterDeadline, s.task_id, s.core, s.end, err.str());
    }
    if (s.core < 0) {
      err.str({});
      err << "task " << s.task_id << ": negative core index " << s.core;
      out.add(Kind::kBadCore, s.task_id, s.core, s.start, err.str());
    }
    if (out.full()) break;
  }

  // Bounded core count.
  if (!cfg.unbounded() && sched.cores_used() > cfg.num_cores) {
    std::ostringstream err;
    err << "schedule uses " << sched.cores_used() << " cores, config allows "
        << cfg.num_cores;
    out.add(Kind::kTooManyCores, -1, sched.cores_used() - 1, 0.0, err.str());
  }

  // Workload completion.
  for (const auto& t : tasks.tasks()) {
    if (out.full()) break;
    const double done = sched.task_work(t.id);
    if (std::abs(done - t.work) >
        kWorkTol * std::max(1.0, std::abs(t.work))) {
      std::ostringstream err;
      err << "task " << t.id << ": executed " << done << " of " << t.work
          << " megacycles";
      out.add(Kind::kWorkMismatch, t.id, -1, t.release, err.str());
    }
  }

  // Per-core overlap.
  const int cores = sched.cores_used();
  for (int c = 0; c < cores && !out.full(); ++c) {
    const auto segs = sched.core_segments(c);
    for (std::size_t i = 1; i < segs.size(); ++i) {
      if (segs[i].start < segs[i - 1].end - kTimeTol) {
        std::ostringstream err;
        err << "core " << c << ": tasks " << segs[i - 1].task_id << " and "
            << segs[i].task_id << " overlap at t=" << segs[i].start;
        out.add(Kind::kOverlap, segs[i].task_id, c, segs[i].start, err.str());
        if (out.full()) break;
      }
    }
  }

  // Non-migration / non-preemption.
  for (const auto& [id, segs] : sched.by_task()) {
    if (out.full()) break;
    if (opts.require_non_migrating) {
      for (const auto& s : segs) {
        if (s.core != segs.front().core) {
          std::ostringstream err;
          err << "task " << id << " migrates between cores "
              << segs.front().core << " and " << s.core;
          out.add(Kind::kMigration, id, s.core, s.start, err.str());
          break;
        }
      }
    }
    if (opts.require_non_preemptive) {
      for (std::size_t i = 1; i < segs.size(); ++i) {
        if (segs[i].start > segs[i - 1].end + kTimeTol) {
          std::ostringstream err;
          err << "task " << id << " is preempted at t=" << segs[i - 1].end;
          out.add(Kind::kPreemption, id, segs[i].core, segs[i - 1].end,
                  err.str());
          break;
        }
      }
    }
  }

  ValidationResult res;
  res.violations = out.take();
  res.ok = res.violations.empty();
  if (!res.ok) res.error = res.violations.front().message;
  return res;
}

}  // namespace sdem
