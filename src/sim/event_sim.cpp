#include "sim/event_sim.hpp"

#include <algorithm>
#include <cmath>
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

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Whether a task finishing at `at` (+inf: never) missed its deadline.
bool missed(const Task& t, double at) {
  return at > t.deadline + 1e-9 * std::max(1.0, t.deadline);
}

/// Whether a task of `work` declared megacycles that has `left` megacycles
/// to run after `piece` is done: `left` is below 1e-9 of its work, or below
/// the work the clock cannot resolve at the piece's end. A piece charges
/// speed × (end − start) of rounded times, so at 1e5 s one ulp of `end`
/// (1.5e-11 s) is worth 2.8e-8 megacycles at 1,900 MHz; a sliver that small
/// would be planned a piece shorter than half an ulp, which never runs.
bool finished(double left, double work, const Segment& piece) {
  const double ulp = std::nextafter(piece.end, kInf) - piece.end;
  return left < std::max(1e-9 * std::max(1.0, work), 2.0 * piece.speed * ulp);
}

/// The batch driver of simulate() and simulate_with_actuals(): inject each
/// release instant's arrivals, each with its actual work, and commit them;
/// when `reclaim` is set, take every completion before each new instant
/// and after the last one.
SimResult drive(const TaskSet& arrivals, const SystemConfig& cfg,
                OnlinePolicy& policy,
                const std::map<int, double>& actual_fraction, bool reclaim) {
  if (arrivals.empty()) return SimResult{};
  // An unbounded config means "as many cores as tasks" — a count only a
  // closed set has, so it is resolved here rather than inside StreamSim.
  const TaskSet sorted = arrivals.sorted_by_release();
  const int cores = cfg.unbounded() ? static_cast<int>(sorted.size())
                                    : cfg.num_cores;
  StreamSim sim(cfg, policy, cores);
  const auto complete_before = [&](double t) {
    if (!reclaim) return;
    for (double tc = sim.next_completion(); tc < t;
         tc = sim.next_completion()) {
      sim.complete_at(tc);
    }
  };
  for (std::size_t i = 0; i < sorted.size();) {
    const double t = sorted[i].release;
    complete_before(t);
    for (; i < sorted.size() && sorted[i].release == t; ++i) {
      const Task& task = sorted[i];
      const auto it = actual_fraction.find(task.id);
      sim.inject_arrival(task, it == actual_fraction.end()
                                   ? task.work
                                   : task.work * std::clamp(it->second,
                                                            0.0, 1.0));
    }
    sim.commit();
  }
  complete_before(kInf);
  return sim.finalize();
}

}  // namespace

StreamSim::StreamSim(const SystemConfig& cfg, OnlinePolicy& policy, int cores,
                     bool record)
    : cfg_(cfg), policy_(&policy), cores_(std::max(1, cores)), record_(record) {
  policy_->reset();
}

void StreamSim::walk(double upto, bool execute) {
  // The one walk of the plan: run it on [plan_from_, upto) over copies of
  // the pending work. Work is charged to the first pending entry carrying
  // the segment's task id; a task that runs less than it declares stops
  // where its actual work is done, and its later pieces never run. A
  // task's completion time is the end of the last piece charged to it.
  // `execute` records the pieces; account() keeps the work left.
  walked_.clear();
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    walked_.push_back({pending_[i].remaining, actual_[i], kInf});
  }
  for (const auto& seg : plan_) {
    const double lo = std::max(seg.start, plan_from_);
    double hi = std::min(seg.end, upto);
    if (hi <= lo) continue;
    const int pos = by_id_.find(seg.task_id);
    Walked* w = pos < 0 ? nullptr : &walked_[static_cast<std::size_t>(pos)];
    if (w != nullptr && w->runs < kInf) {
      if (w->done_at < kInf) continue;
      hi = std::min(hi, lo + w->runs / seg.speed);
      if (hi <= lo) continue;
    }
    Segment piece = seg;
    piece.start = lo;
    piece.end = hi;
    if (execute) {
      if (record_) res_.schedule.add(piece);
      max_end_ = std::max(max_end_, hi);
    }
    if (w == nullptr) continue;  // no pending task carries this id
    const double work = piece.work();
    w->left -= work;
    w->runs -= work;  // +inf stays +inf
    if (finished(std::min(w->left, w->runs),
                 pending_[static_cast<std::size_t>(pos)].task.work, piece)) {
      w->done_at = hi;
    }
  }
}

void StreamSim::account(double upto) {
  // Execute the plan up to `upto`. A task's miss is counted once the whole
  // plan is accounted, as it leaves the pending set.
  walk(upto, /*execute=*/true);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const Walked& w = walked_[i];
    if (w.done_at == kInf) {
      pending_[kept] = pending_[i];
      pending_[kept].remaining = w.left;
      actual_[kept] = w.runs;
      ++kept;
    } else if (missed(pending_[i].task, w.done_at)) {
      ++res_.deadline_misses;
    }
  }
  pending_.resize(kept);
  actual_.resize(kept);
}

void StreamSim::replan(double t, bool completion) {
  plan_ = completion ? policy_->replan_completion(t, pending_, cfg_)
                     : policy_->replan(t, pending_, cfg_);
  by_id_.rebuild(pending_.size(),
                 [this](std::size_t i) { return pending_[i].task.id; });
  plan_from_ = t;
  now_ = t;
  ++res_.replans;
}

void StreamSim::inject_arrival(const Task& t, double actual_work) {
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
  batch_.push_back({t, actual_work});
  ++arrivals_;
  max_deadline_ = std::max(max_deadline_, t.deadline);
  if (record_) tasks_seen_.push_back(t);
  ids_.insert(t.id);
}

void StreamSim::commit() {
  if (batch_.empty()) return;
  const double t = batch_time_;
  SDEM_OBS_INC("sim/arrival_events");
  account(t);
  // Admit the batch in the batch loop's order (TaskSet::sorted_by_release;
  // the batch shares one release). stable_sort keeps injection order for
  // exact duplicates, so driving StreamSim from an already-sorted set is a
  // no-op permutation. It takes a scratch buffer even for one task, the
  // common batch, so a single arrival skips it.
  if (batch_.size() > 1) {
    std::stable_sort(batch_.begin(), batch_.end(),
                     [](const Arrival& a, const Arrival& b) {
                       return TaskSet::ByRelease{}(a.task, b.task);
                     });
  }
  for (const Arrival& a : batch_) {
    PendingTask p;
    p.task = a.task;
    p.remaining = a.task.work;
    p.core = rr_ % cores_;
    ++rr_;
    const bool runs_short = a.actual < a.task.work;
    const double runs = runs_short ? a.actual : a.task.work;
    if (runs > 0.0) {
      pending_.push_back(p);
      actual_.push_back(runs_short ? runs : kInf);
    } else if (!(runs <= 0.0) && missed(a.task, kInf)) {
      ++res_.deadline_misses;  // NaN work: never runs, so never finishes
    }
  }
  batch_.clear();
  replan(t, /*completion=*/false);
}

double StreamSim::next_completion() {
  walk(kInf, /*execute=*/false);
  double first = kInf;
  for (const Walked& w : walked_) first = std::min(first, w.done_at);
  return first;
}

void StreamSim::complete_at(double t) {
  SDEM_OBS_INC("sim/completion_events");
  account(t);
  replan(t, /*completion=*/true);
}

bool StreamSim::full_at(double t, std::size_t cap) {
  if (pending_.size() + batch_.size() < cap) return false;
  if (!batch_.empty() && t > batch_time_) commit();
  walk(t, /*execute=*/false);
  std::size_t held = batch_.size();
  for (const Walked& w : walked_) held += w.done_at == kInf ? 1 : 0;
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
    if (missed(p.task, kInf)) ++res_.deadline_misses;
  }
  res_.horizon_hi = std::max(max_deadline_, max_end_);
  finalized_ = true;
  flush_sim_counters(res_);
  return res_;
}

SimResult simulate(const TaskSet& arrivals, const SystemConfig& cfg,
                   OnlinePolicy& policy) {
  SDEM_OBS_TIMER("sim/simulate");
  return drive(arrivals, cfg, policy, {}, /*reclaim=*/false);
}

SimResult simulate_with_actuals(const TaskSet& arrivals,
                                const SystemConfig& cfg, OnlinePolicy& policy,
                                const std::map<int, double>& actual_fraction,
                                bool replan_on_completion) {
  SDEM_OBS_TIMER("sim/simulate_with_actuals");
  return drive(arrivals, cfg, policy, actual_fraction, replan_on_completion);
}

}  // namespace sdem
