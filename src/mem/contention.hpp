// Memory-controller contention probe (paper §3's "we assume that the
// access delay can be ignored", justified there by disjoint per-core areas
// and bank-level parallelism — this module measures what that assumption
// costs under each scheduler).
//
// Fluid model: a task running at speed s (MHz) issues
// s * accesses_per_megacycle requests per second to the shared controller;
// the controller has `banks` banks, each serving one request per
// `service_time` seconds. Over any interval where the set of running tasks
// is constant the offered load is constant, so the schedule decomposes into
// slices with utilization
//
//   u = (sum of running speeds) * apm * t_s / banks
//
// and the M/D/1 mean queueing wait  w = t_s * u / (2 (1 - u))  per slice.
// The probe reports the peak utilization, the demand-weighted mean wait,
// and the fraction of busy time spent saturated (u >= 1, where the fluid
// model's delay diverges and the paper's assumption actually breaks).
//
// The interesting finding (the contention experiment): SDEM-ON's alignment
// *concentrates* accesses — it buys memory sleep by raising the peak
// bandwidth demand, the exact trade the paper waves at with "tasks have the
// potential to be scheduled concentratively".
#pragma once

#include "sched/schedule.hpp"

namespace sdem {

struct ContentionParams {
  double accesses_per_megacycle = 2000.0;  ///< ~ one access per 500 cycles
  double service_time = 50e-9;             ///< controller service time, s
  int banks = 8;                           ///< parallel banks
};

struct ContentionReport {
  double peak_utilization = 0.0;    ///< max over slices of u
  double mean_utilization = 0.0;    ///< busy-time-weighted
  double mean_wait = 0.0;           ///< demand-weighted M/D/1 wait, seconds
  double saturated_fraction = 0.0;  ///< busy time with u >= 1
  double busy_time = 0.0;           ///< total time with >= 1 task running
};

/// Analyze a schedule's offered memory load.
ContentionReport analyze_contention(const Schedule& sched,
                                    const ContentionParams& params);

}  // namespace sdem
