// Synthetic task-set generation (paper §8.1.2).
//
// Random task sets mirror the paper's setup: workloads uniform in
// [2, 5] x 10^6 cycles (2..5 megacycles), feasible regions uniform in
// [10, 120] ms, arrivals separated by uniform inter-arrival times in
// [0, x] where x is the utilization knob (100 ms = busy system with all 8
// cores in play; 800 ms = a single core would suffice).
//
// Also provides structured generators for the theory tests: common-release
// sets and agreeable-deadline sets.
#pragma once

#include <cstdint>

#include "model/task.hpp"

namespace sdem {

/// Workload range of every generated task, megacycles (§8.1.2).
inline constexpr double kWorkLo = 2.0;
inline constexpr double kWorkHi = 5.0;

struct SyntheticParams {
  int num_tasks = 100;
  double region_lo = 0.010;  ///< seconds
  double region_hi = 0.120;
  double max_interarrival = 0.400;  ///< the paper's x, seconds
};

/// General (sporadic) task set per §8.1.2.
TaskSet make_synthetic(const SyntheticParams& p, std::uint64_t seed);

/// All tasks released at `release`; deadlines spread over regions drawn as
/// above. For the Section 4 schemes.
TaskSet make_common_release(int num_tasks, double release, std::uint64_t seed,
                            double work_lo = kWorkLo, double work_hi = kWorkHi,
                            double region_lo = 0.010, double region_hi = 0.120);

/// Agreeable set: releases spaced by [0, max_interarrival]; each deadline =
/// release + region with regions drawn so that deadlines stay sorted.
TaskSet make_agreeable(int num_tasks, std::uint64_t seed,
                       double max_interarrival = 0.050,
                       double work_lo = kWorkLo, double work_hi = kWorkHi,
                       double region_lo = 0.010, double region_hi = 0.120);

/// Bursty arrivals (interrupt storms): tasks arrive in bursts of
/// `burst_size` with tiny intra-burst spacing, bursts separated by
/// `burst_gap` on average. Stresses the batch-alignment machinery far more
/// than the uniform stream.
struct BurstyParams {
  int num_tasks = 100;
  int burst_size = 8;
  double intra_spacing = 0.002;  ///< max spacing inside a burst, s
  double burst_gap = 0.500;      ///< mean gap between bursts, s
  double region_lo = 0.010;
  double region_hi = 0.120;
};
TaskSet make_bursty(const BurstyParams& p, std::uint64_t seed);

}  // namespace sdem
