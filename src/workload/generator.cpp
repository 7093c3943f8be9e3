#include "workload/generator.hpp"

#include <algorithm>

#include "support/rng.hpp"

namespace sdem {

TaskSet make_synthetic(const SyntheticParams& p, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  TaskSet out;
  double t = 0.0;
  for (int i = 0; i < p.num_tasks; ++i) {
    t += rng.uniform(0.0, p.max_interarrival);
    Task task;
    task.id = i;
    task.release = t;
    task.work = rng.uniform(kWorkLo, kWorkHi);
    task.deadline = t + rng.uniform(p.region_lo, p.region_hi);
    out.add(task);
  }
  return out;
}

TaskSet make_common_release(int num_tasks, double release, std::uint64_t seed,
                            double work_lo, double work_hi, double region_lo,
                            double region_hi) {
  Xoshiro256 rng(seed);
  TaskSet out;
  for (int i = 0; i < num_tasks; ++i) {
    Task task;
    task.id = i;
    task.release = release;
    task.work = rng.uniform(work_lo, work_hi);
    task.deadline = release + rng.uniform(region_lo, region_hi);
    out.add(task);
  }
  return out;
}

TaskSet make_bursty(const BurstyParams& p, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  TaskSet out;
  double t = 0.0;
  int id = 0;
  while (id < p.num_tasks) {
    const int burst =
        std::min(p.burst_size, p.num_tasks - id);
    for (int k = 0; k < burst; ++k) {
      t += rng.uniform(0.0, p.intra_spacing);
      Task task;
      task.id = id++;
      task.release = t;
      task.work = rng.uniform(kWorkLo, kWorkHi);
      task.deadline = t + rng.uniform(p.region_lo, p.region_hi);
      out.add(task);
    }
    t += rng.uniform(0.5 * p.burst_gap, 1.5 * p.burst_gap);
  }
  return out;
}

TaskSet make_agreeable(int num_tasks, std::uint64_t seed,
                       double max_interarrival, double work_lo, double work_hi,
                       double region_lo, double region_hi) {
  Xoshiro256 rng(seed);
  TaskSet out;
  double t = 0.0;
  double last_deadline = 0.0;
  for (int i = 0; i < num_tasks; ++i) {
    t += rng.uniform(0.0, max_interarrival);
    Task task;
    task.id = i;
    task.release = t;
    task.work = rng.uniform(work_lo, work_hi);
    // Keep deadlines non-decreasing so later release => later deadline.
    task.deadline =
        std::max(t + rng.uniform(region_lo, region_hi), last_deadline);
    last_deadline = task.deadline;
    out.add(task);
  }
  return out;
}

}  // namespace sdem
