// Power model (paper §3, §4.2, §5.2, §7).
//
// Core:   P(s) = alpha + beta * s^lambda   (s in MHz, P in watts)
// Memory: static power alpha_m while active; zero while asleep; each
//         sleep/wake cycle costs alpha_m * xi_m (break-even accounting).
//
// Derived speeds:
//   s_m  = (alpha / (beta (lambda-1)))^(1/lambda)      core critical speed
//   s_0  = clamp of s_m into [s_f, s_up]               per-task critical speed
//   s_cm = ((alpha+alpha_m)/(beta (lambda-1)))^(1/λ)   memory-associated speed
//   s_1  = clamp of s_cm into [s_f, s_up]
//   s_c  = constrained critical speed under core break-even xi (§7)
#pragma once

#include <string>

#include "model/sleep_ladder.hpp"
#include "model/task.hpp"

namespace sdem {

/// Homogeneous core power model.
struct CorePower {
  double alpha = 0.0;    ///< static power, W (0 => idle cores are free)
  double beta = 1.0;     ///< dynamic coefficient, W / MHz^lambda
  double lambda = 3.0;   ///< dynamic exponent, > 1
  double s_min = 0.0;    ///< lowest speed, MHz (0 => unconstrained below)
  double s_up = 0.0;     ///< highest speed, MHz (0 => unconstrained above)
  double xi = 0.0;       ///< core break-even time, seconds (§7)

  /// Total power at speed s (active core).
  double power(double s) const;

  /// Dynamic-only power beta * s^lambda.
  double dynamic_power(double s) const;

  /// Energy to run `work` megacycles at constant speed s (includes alpha).
  double exec_energy(double work, double s) const;

  /// Unclamped core critical speed s_m = (alpha/(beta(lambda-1)))^(1/lambda).
  double critical_speed_raw() const;

  /// Per-task critical speed s_0 = min{max{s_m, s_f}, s_up} (§4.2).
  double critical_speed(double filled_speed) const;

  /// Effective maximum speed: s_up if set, else +inf.
  double max_speed() const;

  /// Clamp s into [max(s_min, filled), max_speed()].
  double clamp_speed(double s, double filled_speed = 0.0) const;

  std::string describe() const;
};

/// Shared main memory power model.
struct MemoryPower {
  double alpha_m = 0.0;  ///< static (leakage) power while active, W
  double xi_m = 0.0;     ///< break-even time of a sleep cycle, seconds

  /// Optional multi-state sleep ladder for compute_energy's memory gaps.
  /// Empty (the default) stands for the paper's single state above,
  /// `SleepLadder::single(alpha_m, xi_m)`.
  SleepLadder ladder;

  /// Energy cost of one active->sleep->active transition pair.
  double transition_energy() const { return alpha_m * xi_m; }
};

/// Complete system description used by every scheduler.
struct SystemConfig {
  CorePower core;
  MemoryPower memory;
  int num_cores = 0;  ///< 0 => unbounded (>= number of tasks); else bounded

  bool unbounded() const { return num_cores <= 0; }

  /// Memory-associated critical speed s_cm (unclamped) — §5.2.
  double memory_critical_speed_raw() const;

  /// Per-task s_1 = min{max{s_cm, s_f}, s_up} — §5.2.
  double memory_critical_speed(double filled_speed) const;

  /// Constrained critical speed s_c of a task under core break-even xi (§7):
  /// s_c = s_0 when the task, run at min(s_m, s_up), leaves at least xi idle
  /// time inside the maximal interval |I|; otherwise s_c = s_f.
  double constrained_critical_speed(const Task& t, double interval_len) const;

  /// Paper §8.1.3 default configuration: ARM Cortex-A57-like cores
  /// (beta = 2.53e-10 W/MHz^3, alpha = 0.31 W, lambda = 3, 700..1900 MHz),
  /// 8 cores, 50nm-DRAM-like memory (alpha_m = 4 W, xi_m = 40 ms).
  static SystemConfig paper_default();

  /// Same, with negligible core static power (alpha = 0 model).
  static SystemConfig paper_default_alpha0();
};

}  // namespace sdem
