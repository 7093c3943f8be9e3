// Verbatim copies of the pre-optimization solvers, policies and event loop.
// See the header for why this file must stay frozen.
#include "sim/sim_reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "baseline/oa.hpp"
#include "core/result.hpp"
#include "core/transition.hpp"
#include "support/numeric.hpp"

namespace sdem {
namespace {

constexpr double kInfRef = std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Section 7 solver (transition overheads), original form.
// ---------------------------------------------------------------------------
namespace ref_transition {

double tail_cost(double static_power, double gap, double break_even) {
  if (gap <= 0.0 || static_power <= 0.0) return 0.0;
  if (break_even <= 0.0) return 0.0;
  return std::min(static_power * gap, static_power * break_even);
}

OfflineResult solve(const TaskSet& tasks, const SystemConfig& cfg) {
  OfflineResult res;
  if (tasks.empty() || !tasks.is_common_release() || !tasks.validate().empty())
    return res;
  if (tasks.max_filled_speed() > cfg.core.max_speed() * (1.0 + 1e-12))
    return res;

  const double release = tasks[0].release;
  double H = 0.0;
  for (const auto& t : tasks.tasks()) H = std::max(H, t.deadline - release);
  if (H <= 0.0) return res;

  const double alpha = cfg.core.alpha;
  const double alpha_m = cfg.memory.alpha_m;
  const double beta = cfg.core.beta;
  const double lambda = cfg.core.lambda;
  const double s_m = cfg.core.critical_speed_raw();

  auto energy = [&](double T) {
    if (T <= 0.0) return tasks.total_work() > 0.0 ? kInfRef : 0.0;
    double e = alpha_m * T + tail_cost(alpha_m, H - T, cfg.memory.xi_m);
    for (const auto& t : tasks.tasks()) {
      double run = 0.0, speed = 0.0;
      e += transition_task_cost(t, cfg, H, std::min(T, t.deadline - release),
                                run, speed);
      if (!std::isfinite(e)) return kInfRef;
    }
    return e;
  };

  double t_min = 0.0;
  if (std::isfinite(cfg.core.max_speed())) {
    for (const auto& t : tasks.tasks()) {
      t_min = std::max(t_min, t.work / cfg.core.max_speed());
    }
  }

  std::set<double> bps;
  auto add = [&](double T) {
    if (T > t_min && T < H) bps.insert(T);
  };
  add(H - cfg.core.xi);
  add(H - cfg.memory.xi_m);
  const double s_race = std::min(s_m > 0.0 ? s_m : cfg.core.max_speed(),
                                 cfg.core.max_speed());
  for (const auto& t : tasks.tasks()) {
    if (t.work <= 0.0) continue;
    add(t.deadline - release);
    if (s_m > 0.0) {
      add(t.work / s_race);  // knee
      if (alpha > 0.0 && std::isfinite(s_race)) {
        const double run = t.work / s_race;
        const double race_cost =
            cfg.core.exec_energy(t.work, s_race) +
            std::min(alpha * (H - run), alpha * cfg.core.xi);
        const double rhs = race_cost - alpha * H;
        if (rhs > 0.0) {
          add(std::pow(beta * std::pow(t.work, lambda) / rhs,
                       1.0 / (lambda - 1.0)));
        }
      }
    }
  }
  std::vector<double> edges(bps.begin(), bps.end());
  edges.insert(edges.begin(), t_min);
  edges.push_back(H);

  double best_T = H;
  double best = energy(H);
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    const double lo = edges[i], hi = edges[i + 1];
    if (hi <= lo) continue;
    const double t = golden_min(energy, lo, hi, 1e-13);
    for (double cand : {t, lo, hi}) {
      const double e = energy(cand);
      if (e < best) {
        best = e;
        best_T = cand;
      }
    }
  }
  if (!std::isfinite(best)) return res;

  res.feasible = true;
  res.energy = best;
  res.sleep_time = H - best_T;
  int core = 0;
  for (const auto& t : tasks.tasks()) {
    double run = 0.0, speed = 0.0;
    transition_task_cost(t, cfg, H, std::min(best_T, t.deadline - release),
                         run, speed);
    if (t.work > 0.0) {
      res.schedule.add(Segment{t.id, core, release, release + run, speed});
    }
    ++core;
  }
  return res;
}

}  // namespace ref_transition

// ---------------------------------------------------------------------------
// Section 4.1 solver (alpha == 0), original form (linear case scan).
// ---------------------------------------------------------------------------
namespace ref_alpha0 {

struct Instance {
  double release = 0.0;
  double horizon = 0.0;
  double alpha_m = 0.0;
  double beta = 0.0;
  double lambda = 0.0;
  double s_up = 0.0;
  std::vector<Task> tasks;
  std::vector<double> d;
  std::vector<double> delta;
  std::vector<double> suffix_wl;
  std::vector<double> suffix_wmax;
  std::vector<double> prefix_fixed;

  int n() const { return static_cast<int>(tasks.size()); }
};

Instance build_instance(const TaskSet& tasks, const SystemConfig& cfg) {
  Instance in;
  const TaskSet sorted = tasks.sorted_by_deadline();
  in.tasks = sorted.tasks();
  in.release = in.tasks.front().release;
  in.alpha_m = cfg.memory.alpha_m;
  in.beta = cfg.core.beta;
  in.lambda = cfg.core.lambda;
  in.s_up = cfg.core.max_speed();

  const int n = in.n();
  in.d.resize(n + 1);
  in.delta.resize(n + 1);
  in.suffix_wl.assign(n + 2, 0.0);
  in.suffix_wmax.assign(n + 2, 0.0);
  in.prefix_fixed.assign(n + 2, 0.0);

  in.horizon = in.tasks.back().deadline - in.release;
  for (int i = 1; i <= n; ++i) {
    const Task& t = in.tasks[i - 1];
    in.d[i] = t.deadline - in.release;
    in.delta[i] = in.horizon - in.d[i];
  }
  for (int i = n; i >= 1; --i) {
    const Task& t = in.tasks[i - 1];
    in.suffix_wl[i] = in.suffix_wl[i + 1] + std::pow(t.work, in.lambda);
    in.suffix_wmax[i] = std::max(in.suffix_wmax[i + 1], t.work);
  }
  for (int i = 1; i <= n; ++i) {
    const Task& t = in.tasks[i - 1];
    in.prefix_fixed[i + 1] =
        in.prefix_fixed[i] +
        in.beta * stretch_energy_term(t.work, in.d[i], in.lambda);
  }
  return in;
}

double case_energy(const Instance& in, int i, double delta) {
  const double T = in.horizon - delta;
  if (T < 0.0) return std::numeric_limits<double>::infinity();
  double e = in.alpha_m * T + in.prefix_fixed[i];
  if (in.suffix_wl[i] > 0.0) {
    if (T <= 0.0) return std::numeric_limits<double>::infinity();
    e += in.beta * in.suffix_wl[i] * std::pow(T, 1.0 - in.lambda);
  }
  return e;
}

double delta_mi(const Instance& in, int i) {
  if (in.alpha_m <= 0.0) return 0.0;
  const double s = in.suffix_wl[i];
  if (s <= 0.0) return in.horizon;
  const double t =
      std::pow(in.beta * (in.lambda - 1.0) * s / in.alpha_m, 1.0 / in.lambda);
  return in.horizon - t;
}

struct CaseLocal {
  bool feasible = false;
  double delta = 0.0;
  double energy = std::numeric_limits<double>::infinity();
};

CaseLocal case_local_optimum(const Instance& in, int i) {
  CaseLocal out;
  const double lo = in.delta[i];
  double hi = (i >= 2) ? in.delta[i - 1] : in.horizon;
  if (std::isfinite(in.s_up) && in.suffix_wmax[i] > 0.0) {
    const double w = in.suffix_wmax[i];
    hi = std::min(hi, in.horizon - w / in.s_up);
    // Admission-slack fix, applied to both copies (docs/testing.md).
    if (hi < lo && in.horizon - w / (in.s_up * (1.0 + 1e-12)) >= lo) hi = lo;
  }
  if (hi < lo) return out;
  const double dm = std::clamp(delta_mi(in, i), lo, hi);
  out.feasible = true;
  out.delta = dm;
  out.energy = case_energy(in, i, dm);
  return out;
}

OfflineResult finalize(const Instance& in, int best_case, double best_delta,
                       double best_energy) {
  OfflineResult res;
  res.feasible = true;
  res.case_index = best_case;
  res.sleep_time = best_delta;
  res.energy = best_energy;
  const double T = in.horizon - best_delta;
  for (int j = 1; j <= in.n(); ++j) {
    const Task& t = in.tasks[j - 1];
    if (t.work <= 0.0) continue;
    const double len = (j < best_case) ? in.d[j] : T;
    res.schedule.add(Segment{t.id, j - 1, in.release, in.release + len,
                             t.work / len});
  }
  return res;
}

bool instance_ok(const TaskSet& tasks, const SystemConfig& cfg) {
  return !tasks.empty() && tasks.is_common_release() &&
         tasks.validate().empty() &&
         tasks.max_filled_speed() <= cfg.core.max_speed() * (1.0 + 1e-12);
}

OfflineResult solve(const TaskSet& tasks, const SystemConfig& cfg) {
  if (!instance_ok(tasks, cfg)) return {};
  const Instance in = build_instance(tasks, cfg);

  int best_case = -1;
  double best_delta = 0.0;
  double best_energy = std::numeric_limits<double>::infinity();
  for (int i = 1; i <= in.n(); ++i) {
    const CaseLocal loc = case_local_optimum(in, i);
    if (loc.feasible && loc.energy < best_energy) {
      best_energy = loc.energy;
      best_delta = loc.delta;
      best_case = i;
    }
  }
  if (best_case < 0) return {};
  return finalize(in, best_case, best_delta, best_energy);
}

}  // namespace ref_alpha0

// ---------------------------------------------------------------------------
// Section 4.2 solver (alpha > 0), original form.
// ---------------------------------------------------------------------------
namespace ref_alpha {

struct Entry {
  Task task;
  double s0 = 0.0;
  double c = 0.0;
};

OfflineResult solve(const TaskSet& tasks, const SystemConfig& cfg) {
  OfflineResult res;
  if (tasks.empty() || !tasks.is_common_release() || !tasks.validate().empty())
    return res;
  if (tasks.max_filled_speed() > cfg.core.max_speed() * (1.0 + 1e-12))
    return res;

  const double alpha = cfg.core.alpha;
  const double alpha_m = cfg.memory.alpha_m;
  const double beta = cfg.core.beta;
  const double lambda = cfg.core.lambda;
  const double s_up = cfg.core.max_speed();
  const double release = tasks[0].release;

  const int n = static_cast<int>(tasks.size());
  std::vector<Entry> es;
  es.reserve(n);
  for (const auto& t : tasks.tasks()) {
    Entry e;
    e.task = t;
    e.s0 = cfg.core.critical_speed(t.filled_speed());
    e.c = (t.work > 0.0) ? t.work / e.s0 : 0.0;
    es.push_back(e);
  }
  std::sort(es.begin(), es.end(),
            [](const Entry& a, const Entry& b) { return a.c < b.c; });

  const double horizon = es.back().c;
  if (horizon <= 0.0) {
    res.feasible = true;
    res.energy = 0.0;
    res.sleep_time = 0.0;
    return res;
  }

  std::vector<double> suffix_wl(n + 2, 0.0), suffix_wmax(n + 2, 0.0);
  std::vector<double> prefix_const(n + 2, 0.0);
  for (int i = n; i >= 1; --i) {
    const Entry& e = es[i - 1];
    suffix_wl[i] = suffix_wl[i + 1] + std::pow(e.task.work, lambda);
    suffix_wmax[i] = std::max(suffix_wmax[i + 1], e.task.work);
  }
  for (int i = 1; i <= n; ++i) {
    const Entry& e = es[i - 1];
    prefix_const[i + 1] =
        prefix_const[i] + (e.task.work > 0.0
                               ? (beta * std::pow(e.s0, lambda) + alpha) * e.c
                               : 0.0);
  }
  auto delta_of = [&](int i) { return horizon - es[i - 1].c; };

  auto case_energy = [&](int i, double delta) {
    const double T = horizon - delta;
    if (T <= 0.0) {
      return suffix_wl[i] > 0.0 ? std::numeric_limits<double>::infinity()
                                : 0.0;
    }
    const double devices = static_cast<double>(n - i + 1) * alpha + alpha_m;
    return devices * T + beta * suffix_wl[i] * std::pow(T, 1.0 - lambda);
  };

  int best_case = -1;
  double best_delta = 0.0;
  double best_energy = std::numeric_limits<double>::infinity();
  for (int i = 1; i <= n; ++i) {
    const double lo = delta_of(i);
    double hi = (i >= 2) ? delta_of(i - 1) : horizon;
    if (std::isfinite(s_up) && suffix_wmax[i] > 0.0) {
      hi = std::min(hi, horizon - suffix_wmax[i] / s_up);
    }
    if (hi < lo) continue;

    double dm;
    const double devices = static_cast<double>(n - i + 1) * alpha + alpha_m;
    if (suffix_wl[i] <= 0.0) {
      dm = hi;
    } else if (devices <= 0.0) {
      dm = lo;
    } else {
      dm = horizon -
           std::pow(beta * (lambda - 1.0) * suffix_wl[i] / devices,
                    1.0 / lambda);
      dm = std::clamp(dm, lo, hi);
    }
    const double e = case_energy(i, dm) + prefix_const[i];
    if (e < best_energy) {
      best_energy = e;
      best_delta = dm;
      best_case = i;
    }
  }
  if (best_case < 0) return res;

  res.feasible = true;
  res.case_index = best_case;
  res.sleep_time = best_delta;
  res.energy = best_energy;
  const double T = horizon - best_delta;
  for (int j = 1; j <= n; ++j) {
    const Entry& e = es[j - 1];
    if (e.task.work <= 0.0) continue;
    const double len = (j < best_case) ? e.c : T;
    res.schedule.add(Segment{e.task.id, j - 1, release, release + len,
                             e.task.work / len});
  }
  return res;
}

}  // namespace ref_alpha

OfflineResult ref_plan_common_release(const TaskSet& tasks,
                                      const SystemConfig& cfg) {
  if (cfg.memory.xi_m > 0.0 || (cfg.core.alpha > 0.0 && cfg.core.xi > 0.0)) {
    return ref_transition::solve(tasks, cfg);
  }
  if (cfg.core.alpha > 0.0) return ref_alpha::solve(tasks, cfg);
  return ref_alpha0::solve(tasks, cfg);
}

}  // namespace

// ---------------------------------------------------------------------------
// SDEM-ON policy, original form.
// ---------------------------------------------------------------------------

std::vector<Segment> SdemOnReferencePolicy::replan(
    double now, const std::vector<PendingTask>& pending,
    const SystemConfig& cfg) {
  return plan(now, pending, cfg, procrastinate_);
}

std::vector<Segment> SdemOnReferencePolicy::replan_completion(
    double now, const std::vector<PendingTask>& pending,
    const SystemConfig& cfg) {
  return plan(now, pending, cfg, /*procrastinate=*/false);
}

std::vector<Segment> SdemOnReferencePolicy::plan(
    double now, const std::vector<PendingTask>& pending,
    const SystemConfig& cfg, bool procrastinate) {
  std::vector<Segment> plan;
  if (pending.empty()) return plan;
  const double s_up = cfg.core.max_speed();

  TaskSet virt;
  std::map<int, double> eff_deadline;
  for (const auto& p : pending) {
    Task t;
    t.id = p.task.id;
    t.release = now;
    t.work = p.remaining;
    const double min_span =
        std::isfinite(s_up) ? p.remaining / s_up : 1e-9;
    t.deadline = std::max(p.task.deadline, now + std::max(min_span, 1e-12));
    // Re-released-deadline fix, applied to both copies (docs/testing.md).
    while (t.filled_speed() > s_up * (1.0 + 1e-12)) {
      t.deadline = std::nextafter(t.deadline, kInfRef);
    }
    eff_deadline[t.id] = t.deadline;
    virt.add(t);
  }

  const OfflineResult local = ref_plan_common_release(virt, cfg);

  std::map<int, double> dur;
  for (const auto& seg : local.schedule.segments()) {
    dur[seg.task_id] += seg.duration();
  }

  double wake = std::numeric_limits<double>::infinity();
  for (const auto& p : pending) {
    const double d = eff_deadline[p.task.id];
    const double len = dur.count(p.task.id) ? dur[p.task.id] : 0.0;
    if (len > 0.0) wake = std::min(wake, d - len);
  }
  if (!std::isfinite(wake)) return plan;
  wake = procrastinate ? std::max(wake, now) : now;

  std::map<int, std::vector<const PendingTask*>> by_core;
  for (const auto& p : pending) by_core[p.core].push_back(&p);
  for (auto& [core, group] : by_core) {
    std::sort(group.begin(), group.end(),
              [&](const PendingTask* a, const PendingTask* b) {
                return eff_deadline[a->task.id] < eff_deadline[b->task.id];
              });
    double cur = wake;
    for (const PendingTask* p : group) {
      if (p->remaining <= 0.0) continue;
      double len = dur.count(p->task.id) ? dur[p->task.id] : 0.0;
      if (len <= 0.0) len = p->remaining / std::min(s_up, 1e9);
      const double d = eff_deadline[p->task.id];
      if (cur + len > d) {
        const double min_len =
            std::isfinite(s_up) ? p->remaining / s_up : 1e-12;
        len = std::max(d - cur, min_len);
      }
      if (cfg.core.s_min > 0.0) {
        len = std::min(len, p->remaining / cfg.core.s_min);
      }
      plan.push_back(
          Segment{p->task.id, core, cur, cur + len, p->remaining / len});
      cur += len;
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// MBKP policy, original form.
// ---------------------------------------------------------------------------

std::vector<Segment> MbkpReferencePolicy::replan(
    double now, const std::vector<PendingTask>& pending,
    const SystemConfig& cfg) {
  const int cores = cfg.num_cores > 0 ? cfg.num_cores
                                      : static_cast<int>(pending.size());

  for (const auto& p : pending) {
    if (core_of_.count(p.task.id)) continue;
    const double density = p.task.work / std::max(p.task.region(), 1e-12);
    const int klass = static_cast<int>(std::floor(std::log2(
        std::max(density, 1e-12))));
    int& cursor = class_cursor_[klass];
    core_of_[p.task.id] = cursor % std::max(cores, 1);
    ++cursor;
  }

  // `core_of_` persists across replans while `cores` can shrink (unbounded
  // mode recomputes it from the pending set), so an old assignment may point
  // past the nominal core count — grow the queue array to fit it.
  std::vector<std::vector<OaJob>> queues(std::max(cores, 1));
  for (const auto& p : pending) {
    const int c = core_of_[p.task.id];
    if (c >= static_cast<int>(queues.size())) queues.resize(c + 1);
    queues[c].push_back(OaJob{p.task.id, p.task.deadline, p.remaining});
  }
  std::vector<Segment> plan;
  for (int c = 0; c < static_cast<int>(queues.size()); ++c) {
    if (queues[c].empty()) continue;
    auto segs = oa_plan(now, queues[c], c, cfg.core.s_up, cfg.core.s_min);
    plan.insert(plan.end(), segs.begin(), segs.end());
  }
  return plan;
}

// ---------------------------------------------------------------------------
// Event loop, original form.
// ---------------------------------------------------------------------------

SimResult simulate_reference(const TaskSet& arrivals, const SystemConfig& cfg,
                             OnlinePolicy& policy) {
  SimResult res;
  if (arrivals.empty()) return res;

  const TaskSet sorted = arrivals.sorted_by_release();
  const int cores = cfg.unbounded() ? static_cast<int>(sorted.size())
                                    : cfg.num_cores;

  std::vector<PendingTask> pending;
  std::map<int, double> finished_at;
  std::size_t next_arrival = 0;
  int rr = 0;

  res.horizon_lo = sorted[0].release;

  std::vector<Segment> plan;
  double plan_from = sorted[0].release;

  auto account = [&](double upto) {
    for (const auto& seg : plan) {
      const double lo = std::max(seg.start, plan_from);
      const double hi = std::min(seg.end, upto);
      if (hi <= lo) continue;
      Segment piece = seg;
      piece.start = lo;
      piece.end = hi;
      res.schedule.add(piece);
      for (auto& p : pending) {
        if (p.task.id == piece.task_id) {
          p.remaining -= piece.work();
          // Genuine-bug fix (docs/testing.md): below what the clock can
          // resolve at the piece's end, the sliver left is done too.
          const double ulp =
              std::nextafter(hi, std::numeric_limits<double>::infinity()) -
              hi;
          if (p.remaining < std::max(1e-9 * std::max(1.0, p.task.work),
                                     2.0 * piece.speed * ulp)) {
            p.remaining = 0.0;
            finished_at[p.task.id] = hi;
          }
          break;
        }
      }
    }
    std::erase_if(pending,
                  [](const PendingTask& p) { return p.remaining <= 0.0; });
  };

  while (next_arrival < sorted.size() || !pending.empty()) {
    if (next_arrival < sorted.size()) {
      const double t = sorted[next_arrival].release;
      account(t);
      while (next_arrival < sorted.size() &&
             sorted[next_arrival].release == t) {
        PendingTask p;
        p.task = sorted[next_arrival];
        p.remaining = p.task.work;
        p.core = rr % cores;
        ++rr;
        ++next_arrival;
        if (p.remaining > 0.0) pending.push_back(p);
      }
      plan = policy.replan(t, pending, cfg);
      plan_from = t;
      ++res.replans;
    } else {
      double end = plan_from;
      for (const auto& seg : plan) end = std::max(end, seg.end);
      account(end);
      break;
    }
  }

  res.unfinished = static_cast<int>(pending.size());
  for (const auto& t : sorted.tasks()) {
    auto it = finished_at.find(t.id);
    if (t.work <= 0.0) continue;
    if (it == finished_at.end() ||
        it->second > t.deadline + 1e-9 * std::max(1.0, t.deadline)) {
      ++res.deadline_misses;
    }
  }
  res.horizon_hi = std::max(sorted.max_deadline(), res.schedule.end_time());
  return res;
}

}  // namespace sdem
