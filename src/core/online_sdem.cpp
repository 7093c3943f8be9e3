#include "core/online_sdem.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/common_release_alpha.hpp"
#include "core/common_release_alpha0.hpp"
#include "core/transition.hpp"
#include "obs/obs.hpp"

namespace sdem {

bool plans_with_transition(const SystemConfig& cfg) {
  return cfg.memory.xi_m > 0.0 || (cfg.core.alpha > 0.0 && cfg.core.xi > 0.0);
}

namespace {

/// Pick the Section 4 / Section 7 scheme matching the configuration.
OfflineResult plan_common_release(const TaskSet& tasks,
                                  const SystemConfig& cfg,
                                  TransitionWorkspace& tw,
                                  CommonReleaseScratch& cw, bool validated) {
  if (plans_with_transition(cfg)) {
    return solve_common_release_transition(tasks, cfg, tw, validated);
  }
  if (cfg.core.alpha > 0.0) {
    return solve_common_release_alpha(tasks, cfg, cw, validated);
  }
  return solve_common_release_alpha0(tasks, cfg, cw, validated);
}

}  // namespace

std::vector<Segment> SdemOnPolicy::replan(double now,
                                          const std::vector<PendingTask>& pending,
                                          const SystemConfig& cfg) {
  return plan(now, pending, cfg, procrastinate_);
}

std::vector<Segment> SdemOnPolicy::replan_completion(
    double now, const std::vector<PendingTask>& pending,
    const SystemConfig& cfg) {
  return plan(now, pending, cfg, /*procrastinate=*/false);
}

std::vector<Segment> SdemOnPolicy::plan(double now,
                                        const std::vector<PendingTask>& pending,
                                        const SystemConfig& cfg,
                                        bool procrastinate) {
  std::vector<Segment> plan;
  if (pending.empty()) return plan;
  SDEM_OBS_TIMER("online_sdem/replan");
  SDEM_OBS_INC("online_sdem/replans");
  SDEM_OBS_COUNT("online_sdem/tasks_replanned", pending.size());
  const double s_up = cfg.core.max_speed();
  const double s_up_capped = std::min(s_up, 1e9);

  ReplanScratch& rs = rs_;

  // Re-release everything at `now`. Overdue or overloaded tasks get a
  // race-to-finish effective deadline (the miss is already unavoidable;
  // the validator will count it). `trusted` certifies here what the
  // solvers' validate() pass would check (the constructed deadlines always
  // exceed the release), so they can skip it.
  rs.virt.clear();
  rs.virt.reserve(pending.size());
  rs.eff_deadline.clear();
  rs.dur.assign(pending.size(), 0.0);
  rs.by_id.rebuild(pending.size(),
                   [&](std::size_t i) { return pending[i].task.id; });
  bool trusted = !rs.by_id.has_duplicate();
  for (const auto& p : pending) {
    Task t;
    t.id = p.task.id;
    t.release = now;
    t.work = p.remaining;
    const double min_span =
        std::isfinite(s_up) ? p.remaining / s_up : 1e-9;
    t.deadline = std::max(p.task.deadline, now + std::max(min_span, 1e-12));
    // The max() engaged its second arm: the task cannot make its real
    // deadline any more, i.e. it is past the admission test and races.
    if (t.deadline > p.task.deadline) SDEM_OBS_INC("online_sdem/admission_rejects");
    // At large `now` the sum rounds, and the window can come out an ulp
    // short of the solvers' own admission test: they would return no plan,
    // and the task would block its island for good. Widen it until it
    // passes.
    while (t.filled_speed() > s_up * (1.0 + 1e-12)) {
      t.deadline =
          std::nextafter(t.deadline, std::numeric_limits<double>::infinity());
    }
    if (p.remaining < 0.0) trusted = false;
    rs.eff_deadline.push_back(t.deadline);
    rs.virt.add(t);
  }

  const OfflineResult local =
      plan_common_release(rs.virt, cfg, rs.tw, rs.cw, trusted);
  if (!local.feasible) SDEM_OBS_INC("online_sdem/local_plan_infeasible");

  // Per-task execution length p_j and speed from the local optimum. A
  // solver plans only the ids it was given, and none when two pending tasks
  // share one (it refuses the set).
  for (const auto& seg : local.schedule.segments()) {
    rs.dur[static_cast<std::size_t>(rs.by_id.find(seg.task_id))] +=
        seg.duration();
  }

  // Latest start of each task; the batch wakes at the earliest one.
  double wake = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (rs.dur[i] > 0.0) wake = std::min(wake, rs.eff_deadline[i] - rs.dur[i]);
  }
  if (!std::isfinite(wake)) return plan;
  wake = procrastinate ? std::max(wake, now) : now;
  if (wake > now) SDEM_OBS_INC("online_sdem/procrastinated_replans");
  SDEM_OBS_DIST("online_sdem/wake_delay_s", wake - now);

  // All tasks start when the memory wakes; tasks sharing a core serialize
  // in EDF order, compressing up to s_up when needed. Groups are formed by
  // counting sort over the ascending core list, keeping arrival order
  // within each group before the EDF sort.
  auto& cores = rs.cores;
  cores.clear();
  for (const auto& p : pending) cores.push_back(p.core);
  std::sort(cores.begin(), cores.end());
  cores.erase(std::unique(cores.begin(), cores.end()), cores.end());

  const std::size_t ncores = cores.size();
  rs.offsets.assign(ncores + 1, 0);
  auto core_index = [&](int core) {
    return static_cast<std::size_t>(
        std::lower_bound(cores.begin(), cores.end(), core) - cores.begin());
  };
  for (const auto& p : pending) ++rs.offsets[core_index(p.core) + 1];
  for (std::size_t i = 1; i <= ncores; ++i) rs.offsets[i] += rs.offsets[i - 1];
  rs.cursor.assign(rs.offsets.begin(), rs.offsets.end());
  rs.items.resize(pending.size());
  for (std::size_t i = 0; i < pending.size(); ++i) {
    const PendingTask& p = pending[i];
    rs.items[rs.cursor[core_index(p.core)]++] = ReplanScratch::Item{
        rs.eff_deadline[i], static_cast<int>(i), &p};
  }

  for (std::size_t ci = 0; ci < ncores; ++ci) {
    const int core = cores[ci];
    const auto begin = rs.items.begin() + rs.offsets[ci];
    const auto end = rs.items.begin() + rs.offsets[ci + 1];
    std::sort(begin, end,
              [](const ReplanScratch::Item& a, const ReplanScratch::Item& b) {
                return a.eff < b.eff;
              });
    double cur = wake;
    for (auto it = begin; it != end; ++it) {
      const PendingTask* p = it->p;
      if (p->remaining <= 0.0) continue;
      double len = rs.dur[static_cast<std::size_t>(it->pos)];
      if (len <= 0.0) len = p->remaining / s_up_capped;
      const double d = it->eff;
      if (cur + len > d) {
        // Compress to fit, bounded by s_up (beyond that the miss stands).
        const double min_len =
            std::isfinite(s_up) ? p->remaining / s_up : 1e-12;
        len = std::max(d - cur, min_len);
        SDEM_OBS_INC("online_sdem/tasks_compressed");
      }
      if (cfg.core.s_min > 0.0) {
        // DVFS floor: a plan slower than s_min runs at s_min and the core
        // sleeps the difference.
        len = std::min(len, p->remaining / cfg.core.s_min);
      }
      plan.push_back(
          Segment{p->task.id, core, cur, cur + len, p->remaining / len});
      cur += len;
    }
  }
  return plan;
}

}  // namespace sdem
