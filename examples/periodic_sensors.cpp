// Periodic sensor fusion: a small always-on device runs four periodic
// filters (IMU, magnetometer, barometer, GPS fusion) on DVS cores over a
// shared DRAM. The periodic system expands to a job trace; SDEM-ON
// schedules it online, and the Gantt chart makes the aligned batches — and
// the memory's common idle time between them — visible.
//
// Run: ./build/examples/periodic_sensors
#include <cstdio>

#include "core/online_sdem.hpp"
#include "mem/dram.hpp"
#include "sched/energy.hpp"
#include "sched/trace_io.hpp"
#include "sim/metrics.hpp"
#include "workload/periodic.hpp"

using namespace sdem;

int main() {
  SystemConfig cfg = SystemConfig::paper_default();
  cfg.num_cores = 4;

  PeriodicSystem sensors;
  //                     id  wcet(Mc) period(s) deadline offset
  sensors.add(PeriodicTask{0, 2.5, 0.100, 0.0, 0.000});  // IMU filter
  sensors.add(PeriodicTask{1, 1.5, 0.200, 0.0, 0.020});  // magnetometer
  sensors.add(PeriodicTask{2, 1.0, 0.400, 0.0, 0.050});  // barometer
  sensors.add(PeriodicTask{3, 4.0, 0.400, 0.0, 0.080});  // GPS fusion

  std::printf("periodic system: demand %.1f MHz, hyperperiod %.0f ms\n",
              sensors.demand_mhz(), sensors.hyperperiod() * 1e3);

  const TaskSet jobs = sensors.expand(1.0);  // one second of operation
  std::printf("expanded to %zu jobs over 1 s\n\n", jobs.size());

  const Comparison cmp = run_comparison(jobs, cfg);
  std::printf("%-10s %12s %12s %10s %8s\n", "policy", "system (J)",
              "memory (J)", "sleep (s)", "misses");
  for (const auto* ev : {&cmp.mbkp, &cmp.mbkps, &cmp.sdem}) {
    std::printf("%-10s %12.4f %12.4f %10.3f %8d\n", ev->policy.c_str(),
                ev->energy.system_total(), ev->energy.memory_total(),
                ev->memory_sleep_time, ev->deadline_misses);
  }

  // Show the first 400 ms of the SDEM-ON schedule as a Gantt chart.
  SdemOnPolicy pol;
  const SimResult sim = simulate(jobs, cfg, pol);
  Schedule head;
  for (const auto& seg : sim.schedule.segments()) {
    if (seg.start < 0.400) head.add(seg);
  }
  std::printf("\nSDEM-ON, first 400 ms (note the aligned batches):\n%s\n",
              render_gantt(head).c_str());

  // Charge the memory profile on the DRAM's power-down/self-refresh ladder
  // (clairvoyant kOptimal) to see which low-power states the common idle
  // time actually lands in.
  EnergyOptions eopt;
  eopt.horizon_lo = sim.horizon_lo;
  eopt.horizon_hi = sim.horizon_hi;
  EnergyBreakdown mem;
  add_memory_energy(sim.schedule.memory_busy(),
                    DramPowerParams::paper_50nm().memory(), eopt, mem);
  const SleepStateBreakdown& pd = mem.memory_states[0];
  const SleepStateBreakdown& sr = mem.memory_states[1];
  std::printf("DRAM machine replay (oracle controller):\n");
  std::printf("  active %.4f J, power-down %.4f J (%d naps), self-refresh "
              "%.4f J (%d sleeps), transitions %.4f J\n",
              mem.memory_active + mem.memory_idle, pd.residency_energy,
              static_cast<int>(pd.cycles), sr.residency_energy,
              static_cast<int>(sr.cycles), mem.memory_transition);
  std::printf("  total %.4f J vs abstract model %.4f J + floor\n",
              mem.memory_total(), cmp.sdem.energy.memory_total());
  return 0;
}
