#include "sched/energy.hpp"

#include <algorithm>
#include <vector>

#include "obs/obs.hpp"
#include "obs/timeline.hpp"

namespace sdem {
namespace {

/// One idle gap of a device: [t0, t0 + length), length > 0.
struct IdleGap {
  double t0 = 0.0;
  double length = 0.0;
};

/// A device's idle gaps in chronological order. `leading` marks a first
/// gap that starts at the horizon's start, `trailing` a last gap that ends
/// at the horizon's end.
struct IdleGaps {
  std::vector<IdleGap> gaps;
  bool leading = false;
  bool trailing = false;
};

/// The idle gaps around `busy` (account_idle_gaps' semantics); zero-length
/// gaps are dropped.
IdleGaps idle_gaps(const std::vector<Interval>& busy, double horizon_lo,
                   double horizon_hi) {
  IdleGaps out;
  const bool horizon = horizon_hi > horizon_lo;
  if (busy.empty()) {
    if (horizon) {
      out.gaps.push_back({horizon_lo, horizon_hi - horizon_lo});
      out.leading = true;
    }
    return out;
  }
  out.gaps.reserve(busy.size() + 1);
  if (horizon && busy.front().lo > horizon_lo) {
    out.gaps.push_back({horizon_lo, busy.front().lo - horizon_lo});
    out.leading = true;
  }
  for (std::size_t i = 1; i < busy.size(); ++i) {
    const double g = busy[i].lo - busy[i - 1].hi;
    if (g > 0.0) out.gaps.push_back({busy[i - 1].hi, g});
  }
  if (horizon && horizon_hi > busy.back().hi) {
    out.gaps.push_back({busy.back().hi, horizon_hi - busy.back().hi});
    out.trailing = true;
  }
  return out;
}

/// account_idle_gaps under any discipline (kGovernor without a governor
/// decides as kOptimal), plus the observability hooks of the memory charge
/// (add_memory_energy): per-gap memory gauges (`gauges`) and the
/// power-timeline journal (`tl_pass` >= 0). Neither feeds back into the
/// sums.
GapCosts walk_gaps(const std::vector<Interval>& busy, const SleepLadder& ladder,
                   double horizon_lo, double horizon_hi, SleepDiscipline disc,
                   MemoryGapGovernor* governor, bool gauges,
                   [[maybe_unused]] int tl_pass) {
  GapCosts out;
  out.per_state.resize(static_cast<std::size_t>(ladder.depth()));
  const IdleGaps list = idle_gaps(busy, horizon_lo, horizon_hi);
  const std::vector<IdleGap>& gaps = list.gaps;
  const std::size_t n = gaps.size();

  // Decide every gap chronologically (the governor is an online predictor).
  std::vector<int> decision(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const double g = gaps[i].length;
    int k = -1;
    switch (disc) {
      case SleepDiscipline::kNever:
        break;
      case SleepDiscipline::kAlways:
        // Sleep-when-idle, oblivious: always the deepest state.
        k = ladder.depth() - 1;
        break;
      case SleepDiscipline::kOptimal:
        k = ladder.oracle_state(g);
        break;
      case SleepDiscipline::kGovernor:
        if (governor != nullptr) {
          k = std::clamp(governor->choose_state(ladder), -1,
                         ladder.depth() - 1);
        } else {
          k = ladder.oracle_state(g);
        }
        break;
    }
    decision[i] = k;
    if (tl_pass >= 0) {
      // Clairvoyant disciplines "predicted" the true gap; a live governor
      // exposes the prediction its choice was based on.
      double predicted = -1.0;
      if (disc == SleepDiscipline::kOptimal ||
          (disc == SleepDiscipline::kGovernor && governor == nullptr)) {
        predicted = g;
      } else if (disc == SleepDiscipline::kGovernor) {
        predicted = governor->predict_gap();
      }
      obs::timeline::Outcome oc = obs::timeline::Outcome::kIdle;
      if (k >= 0) {
        const SleepState& s = ladder.state(k);
        oc = g < s.latency ? obs::timeline::Outcome::kAbort
             : (s.xi > 0.0 && g < s.xi)
                 ? obs::timeline::Outcome::kMispredict
                 : obs::timeline::Outcome::kCycle;
      }
      obs::timeline::record_decision(tl_pass, gaps[i].t0, gaps[i].t0 + g,
                                     predicted, k, oc);
    }
    if (disc == SleepDiscipline::kGovernor && governor != nullptr) {
      governor->observe(g, k >= 0 && g < ladder.state(k).latency);
    }
  }

  auto fold = [&](std::size_t i) {
    const double g = gaps[i].length;
    const int k = decision[i];
    if (k < 0) {
      out.idle += g;
      if (gauges) SDEM_OBS_DIST("energy/memory_idle_gap_s", g);
      return;
    }
    const SleepState& s = ladder.state(k);
    auto& ps = out.per_state[static_cast<std::size_t>(k)];
    if (g < s.latency) {
      // Abort: woken before the enter+exit pair fit inside the gap. The
      // pair energy is sunk; the residency saving never materializes.
      out.idle += g;
      out.aborts += 1.0;
      ps.aborts += 1.0;
      if (gauges) {
        SDEM_OBS_INC("energy/ladder_aborts");
        SDEM_OBS_DIST("energy/memory_idle_gap_s", g);
      }
      return;
    }
    out.sleeps += 1.0;
    out.asleep += g;
    if (out.sleeps == 1.0 || g < out.sleep_min) out.sleep_min = g;
    if (g > out.sleep_max) out.sleep_max = g;
    out.exit_latency += s.latency;
    ps.cycles += 1.0;
    ps.sleep_time += g;
    const bool mispredict = s.xi > 0.0 && g < s.xi;
    if (mispredict) {
      out.mispredicts += 1.0;
      ps.mispredicts += 1.0;
    }
    if (!gauges) return;
    if (mispredict) SDEM_OBS_INC("energy/ladder_mispredicts");
    SDEM_OBS_DIST("energy/memory_sleep_interval_s", g);
    // Per-state residency gauges (docs/observability.md): fixed names for
    // the first rungs, one shared bucket for anything deeper.
    switch (k) {
      case 0: SDEM_OBS_DIST("energy/ladder_state0_sleep_s", g); break;
      case 1: SDEM_OBS_DIST("energy/ladder_state1_sleep_s", g); break;
      case 2: SDEM_OBS_DIST("energy/ladder_state2_sleep_s", g); break;
      case 3: SDEM_OBS_DIST("energy/ladder_state3_sleep_s", g); break;
      default: SDEM_OBS_DIST("energy/ladder_state_deep_sleep_s", g); break;
    }
  };

  // Fold leading, trailing, then internal gaps: the paper model's
  // accounting order, which the committed bench payloads were made with.
  std::size_t lo = 0;
  std::size_t hi = n;
  if (list.leading) fold(lo++);
  if (list.trailing && hi > lo) fold(--hi);
  for (std::size_t i = lo; i < hi; ++i) fold(i);

  // One multiply per state: pair_energy * cycles is the paper's
  // `alpha * xi * sleeps` association.
  for (std::size_t k = 0; k < out.per_state.size(); ++k) {
    auto& ps = out.per_state[k];
    const SleepState& s = ladder.state(static_cast<int>(k));
    ps.residency_energy = s.power * ps.sleep_time;
    ps.transition_energy = s.pair_energy * (ps.cycles + ps.aborts);
  }
  return out;
}

}  // namespace

GapCosts account_idle_gaps(const std::vector<Interval>& busy,
                           const SleepLadder& ladder, double horizon_lo,
                           double horizon_hi) {
  return walk_gaps(busy, ladder, horizon_lo, horizon_hi,
                   SleepDiscipline::kOptimal, /*governor=*/nullptr,
                   /*gauges=*/false, /*tl_pass=*/-1);
}

void add_memory_energy(const std::vector<Interval>& busy,
                       const MemoryPower& memory, const EnergyOptions& opts,
                       EnergyBreakdown& e) {
  for (const auto& i : busy) e.memory_active += memory.alpha_m * i.length();
  const SleepLadder single = SleepLadder::single(memory.alpha_m, memory.xi_m);
  const SleepLadder& ladder = memory.ladder.empty() ? single : memory.ladder;
  int tl_pass = -1;
  // The journal follows ladder and governor walks; the single state under
  // a clairvoyant or fixed discipline has no rung choice to show.
  if (obs::timeline::enabled() &&
      (!memory.ladder.empty() ||
       opts.memory_gaps == SleepDiscipline::kGovernor)) {
    tl_pass = obs::timeline::begin_pass(
        opts.timeline_island,
        opts.timeline_label != nullptr ? opts.timeline_label : "");
  }
  GapCosts costs = walk_gaps(busy, ladder, opts.horizon_lo, opts.horizon_hi,
                             opts.memory_gaps, opts.governor,
                             /*gauges=*/true, tl_pass);
  e.memory_idle += memory.alpha_m * costs.idle;
  for (const auto& ps : costs.per_state) {
    e.memory_sleep_residency += ps.residency_energy;
    e.memory_transition += ps.transition_energy;
  }
  if (costs.sleeps > 0.0) {
    if (e.memory_sleep_cycles == 0.0 || costs.sleep_min < e.memory_sleep_min) {
      e.memory_sleep_min = costs.sleep_min;
    }
    e.memory_sleep_max = std::max(e.memory_sleep_max, costs.sleep_max);
  }
  e.memory_sleep_time += costs.asleep;
  e.memory_sleep_cycles += costs.sleeps;
  e.memory_exit_latency += costs.exit_latency;
  e.governor_mispredicts += costs.mispredicts;
  e.governor_aborts += costs.aborts;
  if (e.memory_states.empty()) {
    e.memory_states = std::move(costs.per_state);
    return;
  }
  for (std::size_t k = 0; k < e.memory_states.size(); ++k) {
    SleepStateBreakdown& to = e.memory_states[k];
    const SleepStateBreakdown& from = costs.per_state[k];
    to.sleep_time += from.sleep_time;
    to.cycles += from.cycles;
    to.aborts += from.aborts;
    to.mispredicts += from.mispredicts;
    to.residency_energy += from.residency_energy;
    to.transition_energy += from.transition_energy;
  }
}

EnergyBreakdown compute_energy(const Schedule& sched, const SystemConfig& cfg,
                               const EnergyOptions& opts) {
  EnergyBreakdown e;

  for (const auto& s : sched.segments()) {
    e.core_dynamic += cfg.core.dynamic_power(s.speed) * s.duration();
  }

  if (cfg.core.alpha > 0.0) {
    const SleepLadder core_sleep = SleepLadder::single(cfg.core.alpha,
                                                       cfg.core.xi);
    const int cores = sched.cores_used();
    // Bucket segments by core in one pass instead of scanning the whole
    // schedule once per core; per-core interval order (segment order) and
    // the merge are exactly what core_busy(c) computes.
    std::vector<std::vector<Interval>> per_core(
        static_cast<std::size_t>(cores));
    for (const auto& s : sched.segments()) {
      if (s.core >= 0 && s.core < cores) {
        per_core[static_cast<std::size_t>(s.core)].push_back(
            {s.start, s.end});
      }
    }
    for (int c = 0; c < cores; ++c) {
      const auto busy =
          merge_intervals(std::move(per_core[static_cast<std::size_t>(c)]));
      for (const auto& i : busy) e.core_static += cfg.core.alpha * i.length();
      const GapCosts gaps = account_idle_gaps(busy, core_sleep,
                                              opts.horizon_lo, opts.horizon_hi);
      e.core_idle += cfg.core.alpha * gaps.idle;
      e.core_transition += gaps.per_state[0].transition_energy;
    }
  }

  add_memory_energy(sched.memory_busy(), cfg.memory, opts, e);
  return e;
}

double system_energy(const Schedule& sched, const SystemConfig& cfg,
                     const EnergyOptions& opts) {
  return compute_energy(sched, cfg, opts).system_total();
}

}  // namespace sdem
