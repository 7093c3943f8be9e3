#include "core/agreeable.hpp"

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "core/block_context.hpp"
#include "obs/obs.hpp"
#include "support/thread_pool.hpp"

namespace sdem {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Fill row p of the flat n×n scalar table: block[p*n + q] is the optimum
/// of sorted tasks p..q in one busy interval. One growing BlockContext per
/// row; once the context proves block infeasibility the rest of the row is
/// infeasible too (a longer block still contains the impossible task), so
/// the tail keeps its default infeasible entries without opening a box.
void fill_row(const TaskSet& sorted, const SystemConfig& cfg, int n, int p,
              std::vector<BlockSolution>& block) {
  SDEM_OBS_TIMER("agreeable/fill_row");
  std::uint64_t cells = 0;
  BlockContext ctx(cfg);
  for (int q = p; q < n; ++q) {
    ctx.push_task(sorted[q]);
    if (ctx.block_infeasible()) break;
    block[static_cast<std::size_t>(p) * n + q] = ctx.solve();
    ++cells;
  }
  SDEM_OBS_COUNT("agreeable/dp_cells", cells);
  SDEM_OBS_COUNT("agreeable/dp_cells_skipped_infeasible",
                 static_cast<std::uint64_t>(n - p) - cells);
}

}  // namespace

OfflineResult solve_agreeable(const TaskSet& tasks, const SystemConfig& cfg,
                              ThreadPool* pool) {
  SDEM_OBS_TIMER("agreeable/solve");
  OfflineResult res;
  if (tasks.empty() || !tasks.is_agreeable() || !tasks.validate().empty())
    return res;
  if (tasks.max_filled_speed() > cfg.core.max_speed() * (1.0 + 1e-12))
    return res;

  const TaskSet sorted = tasks.sorted_by_deadline();
  const int n = static_cast<int>(sorted.size());
  const double pair_charge = cfg.memory.alpha_m * cfg.memory.xi_m;

  // Scalar block table (the seed stored full placement vectors per entry —
  // O(n³) memory; placements are now reconstructed only on the optimal
  // path). Rows are independent: each writes its own slots, so the parallel
  // fill is bit-identical to the serial one at any worker count.
  std::vector<BlockSolution> block(static_cast<std::size_t>(n) * n);
  if (pool != nullptr && n > 1) {
    pool->parallel_for(static_cast<std::size_t>(n), [&](std::size_t p) {
      fill_row(sorted, cfg, n, static_cast<int>(p), block);
    });
  } else {
    for (int p = 0; p < n; ++p) fill_row(sorted, cfg, n, p, block);
  }

  std::vector<double> opt(n + 1, kInf);
  std::vector<int> parent(n + 1, -1);
  opt[0] = 0.0;
  for (int q = 1; q <= n; ++q) {
    for (int p = 0; p < q; ++p) {
      const BlockSolution& b =
          block[static_cast<std::size_t>(p) * n + (q - 1)];
      if (!b.feasible || opt[p] == kInf) continue;
      const double cand = opt[p] + b.energy + pair_charge;
      if (cand < opt[q]) {
        opt[q] = cand;
        parent[q] = p;
      }
    }
  }
  if (opt[n] == kInf) return res;

  // Reconstruct the chosen blocks and emit the schedule (one core per
  // sorted task); only these O(n) blocks ever materialize placements.
  std::vector<std::pair<int, int>> blocks;  // [p, q] inclusive
  for (int q = n; q > 0; q = parent[q]) blocks.push_back({parent[q], q - 1});
  double busy = 0.0;
  std::vector<Task> sub;
  for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
    const BlockSolution& b =
        block[static_cast<std::size_t>(it->first) * n + it->second];
    busy += b.e - b.s;
    sub.clear();
    for (int k = it->first; k <= it->second; ++k) sub.push_back(sorted[k]);
    const auto placements = block_placements_at(sub, cfg, b.s, b.e);
    for (int k = 0; k < static_cast<int>(placements.size()); ++k) {
      const auto& p = placements[k];
      if (p.len <= 0.0) continue;
      res.schedule.add(
          Segment{p.task_id, it->first + k, p.start, p.start + p.len, p.speed});
    }
  }

  res.feasible = true;
  res.energy = opt[n];
  res.case_index = static_cast<int>(blocks.size());
  res.sleep_time = (sorted[n - 1].deadline - sorted.min_release()) - busy;
  SDEM_OBS_INC("agreeable/solves");
  SDEM_OBS_COUNT("agreeable/blocks_on_optimal_path", blocks.size());
  SDEM_OBS_DIST("agreeable/sleep_time_s", res.sleep_time);
  return res;
}

OfflineResult solve_agreeable_reference(const TaskSet& tasks,
                                        const SystemConfig& cfg) {
  OfflineResult res;
  if (tasks.empty() || !tasks.is_agreeable() || !tasks.validate().empty())
    return res;
  if (tasks.max_filled_speed() > cfg.core.max_speed() * (1.0 + 1e-12))
    return res;

  const TaskSet sorted = tasks.sorted_by_deadline();
  const int n = static_cast<int>(sorted.size());
  const double pair_charge = cfg.memory.alpha_m * cfg.memory.xi_m;

  // The seed's block table: optimal energy (and placements) of tasks p..q
  // in a single busy interval, every entry solved from scratch.
  std::vector<std::vector<BlockResult>> block(n, std::vector<BlockResult>(n));
  for (int p = 0; p < n; ++p) {
    std::vector<Task> sub;
    sub.reserve(n - p);
    for (int q = p; q < n; ++q) {
      sub.push_back(sorted[q]);
      block[p][q] = solve_block_reference(sub, cfg);
    }
  }

  std::vector<double> opt(n + 1, kInf);
  std::vector<int> parent(n + 1, -1);
  opt[0] = 0.0;
  for (int q = 1; q <= n; ++q) {
    for (int p = 0; p < q; ++p) {
      if (!block[p][q - 1].feasible || opt[p] == kInf) continue;
      const double cand = opt[p] + block[p][q - 1].energy + pair_charge;
      if (cand < opt[q]) {
        opt[q] = cand;
        parent[q] = p;
      }
    }
  }
  if (opt[n] == kInf) return res;

  std::vector<std::pair<int, int>> blocks;  // [p, q] inclusive
  for (int q = n; q > 0; q = parent[q]) blocks.push_back({parent[q], q - 1});
  double busy = 0.0;
  for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
    const auto& b = block[it->first][it->second];
    busy += b.e - b.s;
    for (int k = 0; k < static_cast<int>(b.placements.size()); ++k) {
      const auto& p = b.placements[k];
      if (p.len <= 0.0) continue;
      res.schedule.add(
          Segment{p.task_id, it->first + k, p.start, p.start + p.len, p.speed});
    }
  }

  res.feasible = true;
  res.energy = opt[n];
  res.case_index = static_cast<int>(blocks.size());
  res.sleep_time = (sorted[n - 1].deadline - sorted.min_release()) - busy;
  return res;
}

}  // namespace sdem
