// Shared helpers for the registered figure/table experiments.
//
// Every experiment prints (a) the experiment header with all parameters and
// seeds, (b) an aligned table of the series the paper plots, and (c) the
// same rows as CSV for downstream plotting. `sdem_bench_runner --md`
// prints just the tables, the format embedded in EXPERIMENTS.md, and
// `--out` captures the per-seed numbers as BENCH_<name>.json (see
// docs/benchmarks.md for the schema and the regeneration commands).
//
// Seed sweeps run through support/thread_pool.hpp: seeds are computed in
// parallel into per-seed slots, then folded in seed order, so the printed
// statistics are bit-identical whatever the job count or scheduling.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "model/power.hpp"
#include "obs/obs.hpp"
#include "sim/metrics.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace sdem::bench {

/// Paper §8.1.3 configuration: A57-like cores with the real 700..1900 MHz
/// DVFS window (online policies clamp to it; the planners' speeds already
/// sit above the floor at the default alpha because s_m ~ 849 MHz), 8 cores
/// with the §8.1.2 round-robin assignment.
inline SystemConfig paper_cfg() { return SystemConfig::paper_default(); }

inline void print_header(const std::string& title, const std::string& what) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", what.c_str());
  std::printf("==========================================================\n");
}

inline void print_table(const Table& t) {
  std::printf("%s\n", t.to_text().c_str());
  std::printf("-- CSV --\n%s\n", t.to_csv().c_str());
}

/// Per-seed saving statistics for one operating point.
struct SavingStats {
  Stats sdem_system;
  Stats mbkps_system;
  Stats sdem_memory;
  Stats mbkps_memory;
};

/// Everything one seed of a three-way comparison produces: the four savings
/// the figures plot, the absolute energies Table 4 anchors on, and the
/// wall-clock the seed's run_comparison took (simulate + account, i.e. the
/// solver time the runner records per seed).
struct SeedComparison {
  std::uint64_t seed = 0;
  double sdem_system = 0.0;   ///< system_saving_sdem()
  double mbkps_system = 0.0;  ///< system_saving_mbkps()
  double sdem_memory = 0.0;   ///< memory_saving_sdem()
  double mbkps_memory = 0.0;  ///< memory_saving_mbkps()
  double energy_mbkp = 0.0;   ///< absolute system energies, J
  double energy_mbkps = 0.0;
  double energy_sdem = 0.0;
  double sleep_sdem = 0.0;  ///< memory sleep, s
  double sleep_mbkps = 0.0;
  double solver_seconds = 0.0;
  /// Deterministic-domain counter deltas attributed to this cell's solve
  /// (name-sorted, zero deltas dropped) — the per-(point, seed) attribution
  /// the runner JSON exposes so counter regressions localize to a cell.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/// after - before for two same-thread Registry::local_counters() reads.
/// Counters only grow and cells are never removed, so `after` is a
/// superset of `before` with values >= ; both are name-sorted, so one
/// merge pass suffices. Zero deltas are dropped.
inline std::vector<std::pair<std::string, std::uint64_t>> counter_delta(
    const std::vector<std::pair<std::string, std::uint64_t>>& before,
    const std::vector<std::pair<std::string, std::uint64_t>>& after) {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  std::size_t bi = 0;
  for (const auto& [name, v] : after) {
    while (bi < before.size() && before[bi].first < name) ++bi;
    std::uint64_t prev = 0;
    if (bi < before.size() && before[bi].first == name) prev = before[bi].second;
    if (v > prev) out.emplace_back(name, v - prev);
  }
  return out;
}

/// One cell's work, shared by the seed and grid collectors: run the
/// comparison, fill the slot, and attribute the worker thread's
/// deterministic counter delta to the cell. The cell runs entirely on one
/// thread, so the delta is a pure function of (trace, cfg) whatever the job
/// count or scheduling.
inline void fill_seed_comparison(SeedComparison& sc, std::uint64_t seed,
                                 const TaskSet& trace, const SystemConfig& cfg) {
  const auto before = obs::Registry::instance().local_counters();
  const auto t0 = std::chrono::steady_clock::now();
  const Comparison cmp = run_comparison(trace, cfg);
  const auto t1 = std::chrono::steady_clock::now();
  sc.seed = seed;
  sc.sdem_system = cmp.system_saving_sdem();
  sc.mbkps_system = cmp.system_saving_mbkps();
  sc.sdem_memory = cmp.memory_saving_sdem();
  sc.mbkps_memory = cmp.memory_saving_mbkps();
  sc.energy_mbkp = cmp.mbkp.energy.system_total();
  sc.energy_mbkps = cmp.mbkps.energy.system_total();
  sc.energy_sdem = cmp.sdem.energy.system_total();
  sc.sleep_sdem = cmp.sdem.memory_sleep_time;
  sc.sleep_mbkps = cmp.mbkps.memory_sleep_time;
  sc.solver_seconds = std::chrono::duration<double>(t1 - t0).count();
  sc.counters = counter_delta(before, obs::Registry::instance().local_counters());
}

/// Run `seeds` independent comparisons, in parallel when `pool` is given.
/// Slot i holds seed i+1; the returned vector is always in seed order.
template <typename MakeTrace>
std::vector<SeedComparison> collect_seed_comparisons(MakeTrace&& make_trace,
                                                     const SystemConfig& cfg,
                                                     int seeds,
                                                     ThreadPool* pool = nullptr) {
  std::vector<SeedComparison> out(static_cast<std::size_t>(seeds));
  parallel_for_seeds(pool, seeds, [&](std::uint64_t seed, std::size_t i) {
    fill_seed_comparison(out[i], seed, make_trace(seed), cfg);
  });
  return out;
}

/// Grid generalization of collect_seed_comparisons: every (operating point,
/// seed) cell runs independently on the pool, so sweeps with many points
/// and few seeds — fig7's 64 cells, a --seeds 2 rerun — still occupy every
/// worker. `make_trace(point, seed)` builds the cell's trace,
/// `cfg_for(point)` its config. Returns one seed-ordered vector per point;
/// cells are pure functions of (point, seed), so the result is
/// bit-identical to the serial point-major loop at any job count.
template <typename MakeTrace, typename CfgFor>
std::vector<std::vector<SeedComparison>> collect_grid_comparisons(
    MakeTrace&& make_trace, CfgFor&& cfg_for, int points, int seeds,
    ThreadPool* pool = nullptr) {
  std::vector<std::vector<SeedComparison>> out(
      static_cast<std::size_t>(points),
      std::vector<SeedComparison>(static_cast<std::size_t>(seeds)));
  parallel_for_grid(pool, points, seeds,
                    [&](std::size_t point, std::uint64_t seed, std::size_t) {
                      fill_seed_comparison(out[point][seed - 1], seed,
                                           make_trace(point, seed),
                                           cfg_for(point));
                    });
  return out;
}

/// Fold per-seed comparisons into the figures' Welford accumulators, in
/// seed order (Welford is order-sensitive; this keeps --jobs N output
/// byte-identical to the serial loop it replaced).
inline SavingStats to_saving_stats(const std::vector<SeedComparison>& seeds) {
  SavingStats out;
  for (const SeedComparison& sc : seeds) {
    out.sdem_system.add(sc.sdem_system);
    out.mbkps_system.add(sc.mbkps_system);
    out.sdem_memory.add(sc.sdem_memory);
    out.mbkps_memory.add(sc.mbkps_memory);
  }
  return out;
}

/// "12.34 ±0.56" percentage rendering of a savings Stats.
inline std::string pct(const Stats& s) {
  return Table::fmt(100.0 * s.mean(), 2) + " +-" +
         Table::fmt(100.0 * s.sem(), 2);
}

}  // namespace sdem::bench
