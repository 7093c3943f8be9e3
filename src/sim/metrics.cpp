#include "sim/metrics.hpp"

#include "obs/obs.hpp"

namespace sdem {

PolicyEval evaluate_policy(const SimResult& sim, const SystemConfig& cfg,
                           SleepDiscipline memory_discipline,
                           const std::string& name,
                           MemoryGapGovernor* governor) {
  EnergyOptions opts;
  opts.memory_gaps = memory_discipline;
  opts.horizon_lo = sim.horizon_lo;
  opts.horizon_hi = sim.horizon_hi;
  opts.governor = governor;

  PolicyEval ev;
  ev.policy = name;
  ev.energy = compute_energy(sim.schedule, cfg, opts);
  ev.memory_sleep_time = ev.energy.memory_sleep_time;
  ev.deadline_misses = sim.deadline_misses;
  ev.unfinished = sim.unfinished;
  return ev;
}

namespace {

double saving(double base, double x) {
  if (base <= 0.0) return 0.0;
  return (base - x) / base;
}

}  // namespace

double Comparison::system_saving_mbkps() const {
  return saving(mbkp.energy.system_total(), mbkps.energy.system_total());
}
double Comparison::system_saving_sdem() const {
  return saving(mbkp.energy.system_total(), sdem.energy.system_total());
}
double Comparison::memory_saving_mbkps() const {
  return saving(mbkp.energy.memory_total(), mbkps.energy.memory_total());
}
double Comparison::memory_saving_sdem() const {
  return saving(mbkp.energy.memory_total(), sdem.energy.memory_total());
}

Comparison run_comparison(const TaskSet& arrivals, const SystemConfig& cfg) {
  SDEM_OBS_TIMER("metrics/run_comparison");
  Comparison cmp;

  MbkpPolicy mbkp;
  const SimResult mbkp_sim = simulate(arrivals, cfg, mbkp);
  cmp.mbkp = evaluate_policy(mbkp_sim, cfg, SleepDiscipline::kNever, "MBKP");
  cmp.mbkps =
      evaluate_policy(mbkp_sim, cfg, SleepDiscipline::kOptimal, "MBKPS");

  SdemOnPolicy sdem;
  const SimResult sdem_sim = simulate(arrivals, cfg, sdem);
  cmp.sdem =
      evaluate_policy(sdem_sim, cfg, SleepDiscipline::kOptimal, "SDEM-ON");
  // Per-run headline gauges: how long the memory sleeps under each policy's
  // schedule across the whole comparison horizon.
  SDEM_OBS_DIST("metrics/sdem_memory_sleep_s", cmp.sdem.memory_sleep_time);
  SDEM_OBS_DIST("metrics/mbkps_memory_sleep_s", cmp.mbkps.memory_sleep_time);
  return cmp;
}

}  // namespace sdem
