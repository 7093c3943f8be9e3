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

}  // namespace

namespace detail {

int SimWorkspace::intern(int id) {
  const int slot = slots.intern(id);
  const std::size_t n = static_cast<std::size_t>(slots.size());
  if (finished_at.size() < n) {
    finished_at.resize(n, 0.0);
    finished.resize(n, 0);
    pos_val.resize(n, 0);
    pos_gen.resize(n, 0);
    rem.resize(n, 0.0);
    rem_gen.resize(n, 0);
  }
  return slot;
}

void SimWorkspace::finish(int slot, double at) {
  finished[static_cast<std::size_t>(slot)] = 1;
  finished_at[static_cast<std::size_t>(slot)] = at;
}

double SimWorkspace::finished_time(int id) const {
  const int slot = slots.slot_of(id);
  if (slot < 0 || !finished[static_cast<std::size_t>(slot)]) {
    return std::numeric_limits<double>::infinity();
  }
  return finished_at[static_cast<std::size_t>(slot)];
}

void SimWorkspace::clear() {
  slots.clear();
  finished_at.clear();
  finished.clear();
  pos_val.clear();
  pos_gen.clear();
  rem.clear();
  rem_gen.clear();
  gen = 0;
}

}  // namespace detail

StreamSim::StreamSim(const SystemConfig& cfg, OnlinePolicy& policy, int cores)
    : cfg_(cfg), policy_(&policy), cores_(std::max(1, cores)) {
  policy_->reset();
}

void StreamSim::reset() {
  ws_.clear();
  pending_.clear();
  plan_.clear();
  batch_.clear();
  tasks_seen_.clear();
  batch_time_ = 0.0;
  plan_from_ = 0.0;
  now_ = 0.0;
  rr_ = 0;
  finalized_ = false;
  res_ = SimResult{};
  policy_->reset();
}

void StreamSim::account(double upto) {
  // Execute the current plan on [plan_from_, upto): clip segments, charge
  // work, record completed pieces. Work is charged to the first pending
  // entry carrying the segment's task id (the position index replaces the
  // old per-segment linear scan; pending order is stable within a call).
  const int gen = ++ws_.gen;
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    const std::size_t slot = static_cast<std::size_t>(
        ws_.slots.slot_of(pending_[i].task.id));
    if (ws_.pos_gen[slot] != gen) {
      ws_.pos_gen[slot] = gen;
      ws_.pos_val[slot] = static_cast<int>(i);
    }
  }
  for (const auto& seg : plan_) {
    const double lo = std::max(seg.start, plan_from_);
    const double hi = std::min(seg.end, upto);
    if (hi <= lo) continue;
    Segment piece = seg;
    piece.start = lo;
    piece.end = hi;
    res_.schedule.add(piece);
    const int slot = ws_.slots.slot_of(piece.task_id);
    if (slot < 0 || ws_.pos_gen[static_cast<std::size_t>(slot)] != gen) {
      continue;  // no pending task carries this id
    }
    PendingTask& p = pending_[static_cast<std::size_t>(
        ws_.pos_val[static_cast<std::size_t>(slot)])];
    p.remaining -= piece.work();
    if (p.remaining < 1e-9 * std::max(1.0, p.task.work)) {
      p.remaining = 0.0;
      ws_.finish(slot, hi);
    }
  }
  std::erase_if(pending_,
                [](const PendingTask& p) { return p.remaining <= 0.0; });
}

void StreamSim::inject_arrival(const Task& t) {
  if (finalized_) {
    throw std::logic_error(
        "StreamSim: inject_arrival after finalize (call reset() first)");
  }
  // The stream must be non-decreasing in release time: an arrival earlier
  // than the last committed instant (or the currently buffered batch) would
  // need already-emitted schedule segments rewritten.
  const double floor = batch_.empty() ? now_ : batch_time_;
  if (tasks_seen_.empty()) {
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
  tasks_seen_.push_back(t);
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
      ws_.intern(p.task.id);
      pending_.push_back(p);
    }
  }
  batch_.clear();
  plan_ = policy_->replan(t, pending_, cfg_);
  plan_from_ = t;
  now_ = t;
  ++res_.replans;
}

void StreamSim::advance_to(double t) {
  if (!batch_.empty() && batch_time_ <= t) commit();
  if (t < now_) {
    throw std::invalid_argument("StreamSim: advance_to moves time backwards");
  }
  now_ = t;
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
  double max_deadline = -std::numeric_limits<double>::infinity();
  for (const auto& t : tasks_seen_) {
    max_deadline = std::max(max_deadline, t.deadline);
    if (t.work <= 0.0) continue;
    if (ws_.finished_time(t.id) >
        t.deadline + 1e-9 * std::max(1.0, t.deadline)) {
      ++res_.deadline_misses;
    }
  }
  res_.horizon_hi = std::max(max_deadline, res_.schedule.end_time());
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
    PendingTask declared;    ///< what the policy sees (WCET-based)
    double actual = 0.0;     ///< true remaining megacycles
  };
  detail::SimWorkspace ws;
  std::vector<Live> pending;
  std::size_t next_arrival = 0;
  int rr = 0;

  res.horizon_lo = sorted[0].release;
  std::vector<Segment> plan;
  std::vector<Segment> plan_sorted;  ///< plan by start time, built per replan
  std::vector<PendingTask> view;     ///< declared view handed to the policy
  double plan_from = sorted[0].release;

  // First pending index carrying `id` with actual work left, or -1. Walks
  // forward past finished duplicates exactly like the old linear scan.
  auto alive_at = [&](int id, int gen) {
    const int slot = ws.slots.slot_of(id);
    if (slot < 0 || ws.pos_gen[static_cast<std::size_t>(slot)] != gen) {
      return -1;
    }
    for (std::size_t j = static_cast<std::size_t>(
             ws.pos_val[static_cast<std::size_t>(slot)]);
         j < pending.size(); ++j) {
      if (pending[j].declared.task.id == id && pending[j].actual > 0.0) {
        return static_cast<int>(j);
      }
    }
    return -1;
  };

  auto stamp_positions = [&] {
    const int gen = ++ws.gen;
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const std::size_t slot = static_cast<std::size_t>(
          ws.slots.slot_of(pending[i].declared.task.id));
      if (ws.pos_gen[slot] != gen) {
        ws.pos_gen[slot] = gen;
        ws.pos_val[slot] = static_cast<int>(i);
      }
    }
    return gen;
  };

  // Earliest time a pending task's *actual* work completes under the plan.
  auto next_completion = [&](double after) {
    double best = kInf;
    const int gen = ++ws.gen;
    for (const auto& p : pending) {
      const std::size_t slot = static_cast<std::size_t>(
          ws.slots.slot_of(p.declared.task.id));
      ws.rem[slot] = p.actual;
      ws.rem_gen[slot] = gen;
    }
    for (const auto& seg : plan_sorted) {
      const int slot = ws.slots.slot_of(seg.task_id);
      if (slot < 0 || ws.rem_gen[static_cast<std::size_t>(slot)] != gen ||
          ws.rem[static_cast<std::size_t>(slot)] <= 0.0) {
        continue;
      }
      double& remaining = ws.rem[static_cast<std::size_t>(slot)];
      const double lo = std::max(seg.start, plan_from);
      if (seg.end <= lo) continue;
      const double need = remaining / seg.speed;
      const double have = seg.end - lo;
      if (need <= have + 1e-15) {
        const double tc = lo + need;
        remaining = 0.0;
        if (tc > after + 1e-12) best = std::min(best, tc);
      } else {
        remaining -= seg.speed * have;
      }
    }
    return best;
  };

  // Execute the plan on [plan_from, upto): truncate at actual completions.
  auto account = [&](double upto) {
    const int gen = stamp_positions();
    for (const auto& seg : plan_sorted) {
      const double lo = std::max(seg.start, plan_from);
      const double hi = std::min(seg.end, upto);
      if (hi <= lo) continue;
      const int j = alive_at(seg.task_id, gen);
      if (j < 0) continue;
      Live& p = pending[static_cast<std::size_t>(j)];
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
        ws.finish(ws.slots.slot_of(p.declared.task.id), piece.end);
      }
    }
    std::erase_if(pending, [](const Live& p) { return p.actual <= 0.0; });
  };

  auto replan_now = [&](double t, bool completion) {
    view.clear();
    view.reserve(pending.size());
    for (const auto& p : pending) view.push_back(p.declared);
    plan = completion ? policy.replan_completion(t, view, cfg)
                      : policy.replan(t, view, cfg);
    // Both executors walk the plan chronologically; sort once per replan
    // instead of once per event (the plan is immutable until the next one).
    plan_sorted.assign(plan.begin(), plan.end());
    std::sort(plan_sorted.begin(), plan_sorted.end(),
              [](const Segment& a, const Segment& b) {
                return a.start < b.start;
              });
    plan_from = t;
    ++res.replans;
  };

  while (next_arrival < sorted.size() || !pending.empty()) {
    const double t_arr = next_arrival < sorted.size()
                             ? sorted[next_arrival].release
                             : kInf;
    const double t_done = replan_on_completion ? next_completion(plan_from)
                                               : kInf;
    if (t_arr == kInf && t_done == kInf) {
      // Run the current plan out.
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
        ws.intern(l.declared.task.id);
        pending.push_back(l);
      }
    }
    replan_now(t_arr, /*completion=*/false);
  }

  res.unfinished = static_cast<int>(pending.size());
  for (const auto& t : sorted.tasks()) {
    double frac = 1.0;
    if (auto it = actual_fraction.find(t.id); it != actual_fraction.end()) {
      frac = std::clamp(it->second, 0.0, 1.0);
    }
    if (t.work * frac <= 0.0) continue;
    if (ws.finished_time(t.id) >
        t.deadline + 1e-9 * std::max(1.0, t.deadline)) {
      ++res.deadline_misses;
    }
  }
  res.horizon_hi = std::max(sorted.max_deadline(), res.schedule.end_time());
  flush_sim_counters(res);
  return res;
}

}  // namespace sdem
