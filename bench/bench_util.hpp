// Shared helpers for the registered figure/table experiments.
//
// Every experiment prints (a) the experiment header with all parameters and
// seeds, (b) an aligned table of the series the paper plots, and (c) the
// same rows as CSV for downstream plotting. `sdem_bench_runner --md`
// prints just the tables, the format embedded in EXPERIMENTS.md, and
// `--out` captures the per-seed numbers as BENCH_<name>.json (see
// docs/benchmarks.md for the schema and the regeneration commands).
//
// Seed sweeps run through Grid (support/thread_pool.hpp underneath): cells
// are computed in parallel into private JSON objects, then folded in seed
// order, so the printed statistics are bit-identical whatever the job count
// or scheduling.
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
#include "support/json.hpp"
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

/// A (point, seed) sweep whose cells are JSON objects. Every cell runs on
/// the pool (serially when it is null) and sets each of its metrics once on
/// its own object; the folds below read them back in seed order, so every
/// folded statistic is bit-identical at any job count. The grid sets
/// "seed" before a cell runs and times the whole cell, trace generation
/// included; the timings live apart from the cells until per_seed().
class Grid {
 public:
  /// `cell(point, seed, out)`: 0-based point, 1-based seed, and the cell's
  /// object, which already holds "seed".
  template <typename Cell>
  Grid(ThreadPool* pool, int points, int seeds, Cell&& cell)
      : seeds_(static_cast<std::size_t>(seeds)),
        cells_(static_cast<std::size_t>(points) * seeds_),
        seconds_(cells_.size()) {
    parallel_for_grid(
        pool, points, seeds,
        [&](std::size_t point, std::uint64_t seed, std::size_t slot) {
          const auto t0 = std::chrono::steady_clock::now();
          cells_[slot].set("seed", seed);
          cell(point, seed, cells_[slot]);
          seconds_[slot] = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
        });
  }

  /// Seed-order sum of `key` over the point's cells that set it; 0 if none.
  double sum(std::size_t point, const std::string& key) const {
    double total = 0.0;
    for (std::size_t i = point * seeds_; i < (point + 1) * seeds_; ++i)
      if (const Json* v = cells_[i].find(key)) total += v->as_number();
    return total;
  }

  /// Seed-order Welford accumulation of `key` over the point's cells that
  /// set it; max() and count() read it.
  Stats stats(std::size_t point, const std::string& key) const {
    Stats s;
    for (std::size_t i = point * seeds_; i < (point + 1) * seeds_; ++i)
      if (const Json* v = cells_[i].find(key)) s.add(v->as_number());
    return s;
  }
  double max(std::size_t point, const std::string& key) const {
    return stats(point, key).max();
  }
  std::size_t count(std::size_t point, const std::string& key) const {
    return stats(point, key).count();
  }

  /// Moves the point's cells onto the end of `into`, in seed order, each
  /// closed by its "solver_seconds". Fold the point first.
  Json per_seed(std::size_t point, Json into = Json::array()) {
    for (std::size_t i = point * seeds_; i < (point + 1) * seeds_; ++i) {
      cells_[i].set("solver_seconds", seconds_[i]);
      into.push_back(std::move(cells_[i]));
    }
    return into;
  }

  /// Wall time of every cell, summed.
  double solver_seconds() const {
    double total = 0.0;
    for (double s : seconds_) total += s;
    return total;
  }

 private:
  std::size_t seeds_;
  std::vector<Json> cells_;  ///< point-major, seed-ascending
  std::vector<double> seconds_;
};

/// One three-way comparison cell: the four savings the figures plot, the
/// absolute system energies Table 4 anchors on, and the two memory sleep
/// times. While the layer records (obs::recording()) it also sets
/// "counters", the worker thread's deterministic counter delta around
/// run_comparison: the cell runs on one thread, so the delta is a pure
/// function of (trace, cfg) at any job count. The runner's --stable
/// strips it.
inline void comparison_cell(Json& cell, const TaskSet& trace,
                            const SystemConfig& cfg) {
  const bool attribute = obs::recording();
  std::vector<std::pair<std::string, std::uint64_t>> before;
  if (attribute) before = obs::Registry::instance().local_counters();
  const Comparison cmp = run_comparison(trace, cfg);
  cell.set("sdem_system_saving", cmp.system_saving_sdem());
  cell.set("mbkps_system_saving", cmp.system_saving_mbkps());
  cell.set("sdem_memory_saving", cmp.memory_saving_sdem());
  cell.set("mbkps_memory_saving", cmp.memory_saving_mbkps());
  cell.set("energy_mbkp_j", cmp.mbkp.energy.system_total());
  cell.set("energy_mbkps_j", cmp.mbkps.energy.system_total());
  cell.set("energy_sdem_j", cmp.sdem.energy.system_total());
  cell.set("memory_sleep_sdem_s", cmp.sdem.memory_sleep_time);
  cell.set("memory_sleep_mbkps_s", cmp.mbkps.memory_sleep_time);
  if (!attribute) return;
  // after - before. Counters only grow and are never removed, so `after`
  // is a name-sorted superset of `before` and one merge pass suffices.
  Json counters = Json::object();
  std::size_t bi = 0;
  for (const auto& [name, v] : obs::Registry::instance().local_counters()) {
    while (bi < before.size() && before[bi].first < name) ++bi;
    const std::uint64_t prev =
        bi < before.size() && before[bi].first == name ? before[bi].second : 0;
    if (v > prev) counters.set(name, v - prev);
  }
  if (counters.size() > 0) cell.set("counters", std::move(counters));
}

/// "12.34 ±0.56" percentage rendering of a savings Stats.
inline std::string pct(const Stats& s) {
  return Table::fmt(100.0 * s.mean(), 2) + " +-" +
         Table::fmt(100.0 * s.sem(), 2);
}

}  // namespace sdem::bench
