#include "sim/event_sim.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"

namespace sdem {
namespace {

/// A context switch is a core running a different task than the one it ran
/// last. Segments are appended chronologically (event windows in time
/// order, per-core EDF order within a window), so one pass with a per-core
/// last-task map counts switches; a pure function of the schedule.
std::uint64_t count_context_switches(const Schedule& schedule) {
  std::map<int, int> last_task;
  std::uint64_t switches = 0;
  for (const auto& seg : schedule.segments()) {
    const auto [it, fresh] = last_task.emplace(seg.core, seg.task_id);
    if (!fresh && it->second != seg.task_id) {
      ++switches;
      it->second = seg.task_id;
    }
  }
  return switches;
}

/// End-of-run counter flush shared by both simulate variants.
void flush_sim_counters(const SimResult& res) {
  SDEM_OBS_INC("sim/runs");
  SDEM_OBS_COUNT("sim/replans", res.replans);
  SDEM_OBS_COUNT("sim/segments", res.schedule.segments().size());
  SDEM_OBS_COUNT("sim/context_switches",
                 count_context_switches(res.schedule));
  SDEM_OBS_COUNT("sim/deadline_misses", res.deadline_misses);
  SDEM_OBS_COUNT("sim/unfinished_tasks", res.unfinished);
}

/// Whether a task finishing at `at` (+inf: never) missed its deadline.
bool missed(const Task& t, double at) {
  return at > t.deadline + 1e-9 * std::max(1.0, t.deadline);
}

}  // namespace

StreamSim::StreamSim(const SystemConfig& cfg, OnlinePolicy& policy, int cores,
                     bool record)
    : cfg_(cfg), policy_(&policy), cores_(std::max(1, cores)), record_(record) {
  policy_->reset();
}

void StreamSim::account(double upto) {
  // Execute the current plan on [plan_from_, upto): clip segments, charge
  // work, record completed pieces. Work is charged to the first pending
  // entry carrying the segment's task id. A task's completion time is the
  // end of the last piece charged to it, so its miss is counted once the
  // whole plan is accounted, as it leaves the pending set.
  finished_at_.assign(pending_.size(),
                      std::numeric_limits<double>::infinity());
  for (const auto& seg : plan_) {
    const double lo = std::max(seg.start, plan_from_);
    const double hi = std::min(seg.end, upto);
    if (hi <= lo) continue;
    Segment piece = seg;
    piece.start = lo;
    piece.end = hi;
    if (record_) res_.schedule.add(piece);
    max_end_ = std::max(max_end_, hi);
    const int pos = by_id_.find(piece.task_id);
    if (pos < 0) continue;  // no pending task carries this id
    PendingTask& p = pending_[static_cast<std::size_t>(pos)];
    p.remaining -= piece.work();
    if (p.remaining < 1e-9 * std::max(1.0, p.task.work)) {
      p.remaining = 0.0;
      finished_at_[static_cast<std::size_t>(pos)] = hi;
    }
  }
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].remaining > 0.0) {
      pending_[kept++] = pending_[i];
    } else if (missed(pending_[i].task, finished_at_[i])) {
      ++res_.deadline_misses;
    }
  }
  pending_.resize(kept);
}

void StreamSim::inject_arrival(const Task& t) {
  if (finalized_) {
    throw std::logic_error("StreamSim: inject_arrival after finalize");
  }
  // The stream must be non-decreasing in release time: an arrival earlier
  // than the last committed instant (or the currently buffered batch) would
  // need already-emitted schedule segments rewritten.
  const double floor = batch_.empty() ? now_ : batch_time_;
  if (arrivals_ == 0) {
    res_.horizon_lo = t.release;
    plan_from_ = t.release;
  } else if (t.release < floor) {
    throw std::invalid_argument("StreamSim: arrival out of order (release " +
                                std::to_string(t.release) + " < " +
                                std::to_string(floor) + ")");
  }
  if (!batch_.empty() && t.release != batch_time_) commit();
  batch_time_ = t.release;
  batch_.push_back(t);
  ++arrivals_;
  max_deadline_ = std::max(max_deadline_, t.deadline);
  if (record_) tasks_seen_.push_back(t);
  slots_.intern(t.id);
}

void StreamSim::commit() {
  if (batch_.empty()) return;
  const double t = batch_time_;
  SDEM_OBS_INC("sim/arrival_events");
  account(t);
  // Admit the batch in the batch loop's within-instant order: deadline, then
  // id (TaskSet::sorted_by_release ties). stable_sort keeps injection order
  // for exact duplicates, so driving StreamSim from an already-sorted set is
  // a no-op permutation. It takes a scratch buffer even for one task, the
  // common batch, so a single arrival skips it.
  if (batch_.size() > 1) {
    std::stable_sort(batch_.begin(), batch_.end(),
                     [](const Task& a, const Task& b) {
                       if (a.deadline != b.deadline)
                         return a.deadline < b.deadline;
                       return a.id < b.id;
                     });
  }
  for (const Task& task : batch_) {
    PendingTask p;
    p.task = task;
    p.remaining = task.work;
    p.core = rr_ % cores_;
    ++rr_;
    if (p.remaining > 0.0) {
      pending_.push_back(p);
    } else if (!(task.work <= 0.0) &&
               missed(task, std::numeric_limits<double>::infinity())) {
      ++res_.deadline_misses;  // NaN work: never runs, so never finishes
    }
  }
  batch_.clear();
  plan_ = policy_->replan(t, pending_, cfg_);
  by_id_.rebuild(pending_.size(),
                 [this](std::size_t i) { return pending_[i].task.id; });
  plan_from_ = t;
  now_ = t;
  ++res_.replans;
}

bool StreamSim::full_at(double t, std::size_t cap) {
  if (pending_.size() + batch_.size() < cap) return false;
  if (!batch_.empty() && t > batch_time_) commit();
  // account(t) on a copy of the remaining work.
  std::vector<double> left;
  for (const auto& p : pending_) left.push_back(p.remaining);
  for (const auto& seg : plan_) {
    Segment piece = seg;
    piece.start = std::max(seg.start, plan_from_);
    piece.end = std::min(seg.end, t);
    const int pos = by_id_.find(seg.task_id);
    if (piece.end <= piece.start || pos < 0) continue;
    const auto i = static_cast<std::size_t>(pos);
    left[i] -= piece.work();
    if (left[i] < 1e-9 * std::max(1.0, pending_[i].task.work)) left[i] = 0.0;
  }
  std::size_t held = batch_.size();
  for (const double r : left) held += r > 0.0 ? 1 : 0;
  return held >= cap;
}

const SimResult& StreamSim::finalize() {
  if (finalized_) return res_;
  commit();
  if (!pending_.empty()) {
    // Run the current plan to completion.
    double end = plan_from_;
    for (const auto& seg : plan_) end = std::max(end, seg.end);
    account(end);
    now_ = std::max(now_, end);
  }
  res_.unfinished = static_cast<int>(pending_.size());
  for (const auto& p : pending_) {
    if (missed(p.task, std::numeric_limits<double>::infinity())) {
      ++res_.deadline_misses;
    }
  }
  res_.horizon_hi = std::max(max_deadline_, max_end_);
  finalized_ = true;
  flush_sim_counters(res_);
  return res_;
}

SimResult simulate(const TaskSet& arrivals, const SystemConfig& cfg,
                   OnlinePolicy& policy) {
  SDEM_OBS_TIMER("sim/simulate");
  SimResult res;
  if (arrivals.empty()) return res;

  // The batch run is the streamed run: sort once, inject in order, finalize.
  // An unbounded config means "as many cores as tasks" — a count only a
  // closed set has, so it is resolved here rather than inside StreamSim.
  const TaskSet sorted = arrivals.sorted_by_release();
  const int cores = cfg.unbounded() ? static_cast<int>(sorted.size())
                                    : cfg.num_cores;
  StreamSim sim(cfg, policy, cores);
  for (const auto& t : sorted.tasks()) sim.inject_arrival(t);
  res = sim.finalize();
  return res;
}

SimResult simulate_with_actuals(const TaskSet& arrivals,
                                const SystemConfig& cfg, OnlinePolicy& policy,
                                const std::map<int, double>& actual_fraction,
                                bool replan_on_completion) {
  SDEM_OBS_TIMER("sim/simulate_with_actuals");
  SimResult res;
  if (arrivals.empty()) return res;
  policy.reset();

  const TaskSet sorted = arrivals.sorted_by_release();
  const int cores = cfg.unbounded() ? static_cast<int>(sorted.size())
                                    : cfg.num_cores;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  struct Live {
    PendingTask declared;  ///< what the policy sees (WCET-based)
    double actual = 0.0;   ///< true remaining megacycles
  };
  std::vector<Live> pending;
  std::size_t next_arrival = 0;
  int rr = 0;

  res.horizon_lo = sorted[0].release;
  std::vector<Segment> plan;
  double plan_from = sorted[0].release;

  // The plan in start order and the pending position of each segment's task
  // (-1: none), rebuilt at each replan. Every event until the next replan
  // walks them: only account() removes pending tasks, and a replan always
  // follows it.
  std::vector<Segment> chrono;
  std::vector<int> chrono_pos;
  PositionIndex by_id;
  std::vector<double> rem;  ///< next_completion's scratch, by position

  // Earliest time a pending task's *actual* work completes under the plan.
  auto next_completion = [&](double after) {
    double best = kInf;
    rem.clear();
    for (const auto& p : pending) rem.push_back(p.actual);
    for (std::size_t k = 0; k < chrono.size(); ++k) {
      const Segment& seg = chrono[k];
      const int pos = chrono_pos[k];
      if (pos < 0 || rem[static_cast<std::size_t>(pos)] <= 0.0) continue;
      double& left = rem[static_cast<std::size_t>(pos)];
      const double lo = std::max(seg.start, plan_from);
      if (seg.end <= lo) continue;
      const double need = left / seg.speed;
      const double have = seg.end - lo;
      if (need <= have + 1e-15) {
        const double tc = lo + need;
        left = 0.0;
        if (tc > after + 1e-12) best = std::min(best, tc);
      } else {
        left -= seg.speed * have;
      }
    }
    return best;
  };

  // Execute the plan on [plan_from, upto): truncate at actual completions.
  // A task's miss is counted when it completes.
  auto account = [&](double upto) {
    for (std::size_t k = 0; k < chrono.size(); ++k) {
      const Segment& seg = chrono[k];
      const int pos = chrono_pos[k];
      const double lo = std::max(seg.start, plan_from);
      const double hi = std::min(seg.end, upto);
      if (hi <= lo || pos < 0) continue;
      Live& p = pending[static_cast<std::size_t>(pos)];
      if (p.actual <= 0.0) continue;
      const double run = std::min(hi - lo, p.actual / seg.speed);
      if (run <= 0.0) continue;
      Segment piece = seg;
      piece.start = lo;
      piece.end = lo + run;
      res.schedule.add(piece);
      const double done = seg.speed * run;
      p.actual = std::max(0.0, p.actual - done);
      p.declared.remaining = std::max(0.0, p.declared.remaining - done);
      if (p.actual <= 1e-9 * std::max(1.0, p.declared.task.work)) {
        p.actual = 0.0;
        if (missed(p.declared.task, piece.end)) ++res.deadline_misses;
      }
    }
    std::erase_if(pending, [](const Live& p) { return p.actual <= 0.0; });
  };

  auto replan_now = [&](double t, bool completion) {
    std::vector<PendingTask> view;
    view.reserve(pending.size());
    for (const auto& p : pending) view.push_back(p.declared);
    plan = completion ? policy.replan_completion(t, view, cfg)
                      : policy.replan(t, view, cfg);
    plan_from = t;
    ++res.replans;
    chrono = plan;
    std::sort(chrono.begin(), chrono.end(),
              [](const Segment& a, const Segment& b) {
                return a.start < b.start;
              });
    by_id.rebuild(pending.size(), [&](std::size_t i) {
      return pending[i].declared.task.id;
    });
    chrono_pos.clear();
    for (const auto& seg : chrono) {
      chrono_pos.push_back(by_id.find(seg.task_id));
    }
  };

  while (next_arrival < sorted.size() || !pending.empty()) {
    const double t_arr = next_arrival < sorted.size()
                             ? sorted[next_arrival].release
                             : kInf;
    const double t_done = replan_on_completion ? next_completion(plan_from)
                                               : kInf;
    if (t_arr == kInf && t_done == kInf) {
      double end = plan_from;
      for (const auto& seg : plan) end = std::max(end, seg.end);
      account(end);
      break;
    }
    if (t_done < t_arr) {
      SDEM_OBS_INC("sim/completion_events");
      account(t_done);
      replan_now(t_done, /*completion=*/true);
      continue;
    }
    SDEM_OBS_INC("sim/arrival_events");
    account(t_arr);
    while (next_arrival < sorted.size() &&
           sorted[next_arrival].release == t_arr) {
      Live l;
      l.declared.task = sorted[next_arrival];
      l.declared.remaining = l.declared.task.work;
      l.declared.core = rr % cores;
      double frac = 1.0;
      if (auto it = actual_fraction.find(l.declared.task.id);
          it != actual_fraction.end()) {
        frac = std::clamp(it->second, 0.0, 1.0);
      }
      l.actual = l.declared.task.work * frac;
      ++rr;
      ++next_arrival;
      if (l.actual > 0.0) {
        pending.push_back(l);
      } else if (!(l.actual <= 0.0)) {
        ++res.deadline_misses;  // NaN work: never runs, so never completes
      }
    }
    replan_now(t_arr, /*completion=*/false);
  }

  // A task that never completed missed its deadline.
  res.unfinished = static_cast<int>(pending.size());
  res.deadline_misses += res.unfinished;
  res.horizon_hi = std::max(sorted.max_deadline(), res.schedule.end_time());
  flush_sim_counters(res);
  return res;
}

}  // namespace sdem
