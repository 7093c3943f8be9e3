// Shared helpers for the sdem test suites.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "model/power.hpp"
#include "model/task.hpp"
#include "obs/obs.hpp"

namespace sdem::test {

/// Config with the paper's dynamic-power shape and configurable statics.
/// s_up defaults to 1900 MHz; pass 0 for unconstrained speeds.
inline SystemConfig make_cfg(double alpha, double alpha_m,
                             double s_up = 1900.0, double lambda = 3.0) {
  SystemConfig cfg;
  cfg.core.alpha = alpha;
  cfg.core.beta = 2.53e-10;
  cfg.core.lambda = lambda;
  cfg.core.s_min = 0.0;
  cfg.core.s_up = s_up;
  cfg.memory.alpha_m = alpha_m;
  cfg.num_cores = 0;  // unbounded
  return cfg;
}

inline Task task(int id, double release, double deadline, double work) {
  Task t;
  t.id = id;
  t.release = release;
  t.deadline = deadline;
  t.work = work;
  return t;
}

/// Relative-tolerance comparison for energies.
inline void expect_near_rel(double expected, double actual, double rel,
                            const char* what = "") {
  const double scale = std::max({1e-12, std::abs(expected), std::abs(actual)});
  EXPECT_NEAR(expected, actual, rel * scale) << what;
}

/// The calling thread's deterministic counter `name` (0 when never bumped).
/// Diff two reads around a call to get that call's work counts.
inline std::uint64_t local_counter(const std::string& name) {
  for (const auto& [key, value] : obs::Registry::instance().local_counters()) {
    if (key == name) return value;
  }
  return 0;
}

}  // namespace sdem::test
