// The registered experiments: each body is one sweep of the paper's
// evaluation and a JSON payload next to the printed tables. The
// deterministic sweeps run their (point, seed) cells through Grid
// (bench_util.hpp), which folds in seed order, so the printed tables and
// the JSON per-seed numbers are bit-identical between --jobs 1 and
// --jobs N, recording or not
// (BenchRegistry.EveryDeterministicExperimentIsJobCountAndRecordingIndependent
// in tests/test_obs.cpp). governor_ladder keeps its own loop because one
// cell's simulations feed three depth rows; table1 and bounded_partition
// time their work, so their payloads vary run to run.
#include <chrono>
#include <map>

#include "baseline/mbkp.hpp"
#include "baseline/simple_policies.hpp"
#include "bench_registry.hpp"
#include "bounded/partition.hpp"
#include "core/agreeable.hpp"
#include "core/block.hpp"
#include "core/discrete_solver.hpp"
#include "core/discretize.hpp"
#include "core/islands.hpp"
#include "core/common_release_alpha.hpp"
#include "core/common_release_alpha0.hpp"
#include "core/online_sdem.hpp"
#include "core/transition.hpp"
#include "mem/contention.hpp"
#include "mem/dram.hpp"
#include "mem/ranks.hpp"
#include "model/access.hpp"
#include "sched/energy.hpp"
#include "sim/event_sim.hpp"
#include "sim/governor.hpp"
#include "single/sss.hpp"
#include "workload/dspstone.hpp"
#include "workload/generator.hpp"

namespace sdem::bench {
namespace {

// ---------------------------------------------------------------- Fig. 6a/6b

// Shared DSPstone sweep over U in [2, 9]; `memory` selects the Fig. 6a
// (memory-only savings) vs Fig. 6b (system-wide savings) columns.
ExperimentResult run_fig6(const RunOptions& opt, bool memory) {
  const auto cfg = paper_cfg();
  const int seeds = opt.seeds > 0 ? opt.seeds : 10;
  constexpr int kTasks = 160;

  ExperimentResult r;
  if (memory) {
    r.header_title = "Fig 6a — memory static energy saving vs U (DSPstone)";
    r.header_what =
        "saving(X) = (E_mem(MBKP) - E_mem(X)) / E_mem(MBKP); " +
        std::to_string(seeds) + " seeds x " + std::to_string(kTasks) +
        " task instances; alpha_m=4W, xi_m=40ms, 8 cores";
  } else {
    r.header_title = "Fig 6b — system-wide energy saving vs U (DSPstone)";
    r.header_what = "saving(X) = (E_sys(MBKP) - E_sys(X)) / E_sys(MBKP); " +
                    std::to_string(seeds) + " seeds x " +
                    std::to_string(kTasks) + " instances; paper defaults";
  }

  Table t(memory
              ? std::vector<std::string>{"U", "MBKPS mem saving %",
                                         "SDEM-ON mem saving %",
                                         "SDEM-ON - MBKPS (pp)"}
              : std::vector<std::string>{"U", "MBKPS saving %",
                                         "SDEM-ON saving %",
                                         "SDEM-ON - MBKPS (pp)"});
  // All 8 U points x seeds flood the pool as one grid; folds below walk the
  // points in order, so output is byte-identical to the per-point loop.
  Grid g(opt.pool, 8, seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           const int u = 2 + static_cast<int>(pi);
           DspstoneParams p;
           p.num_tasks = kTasks;
           p.utilization_u = static_cast<double>(u);
           comparison_cell(cell, make_dspstone(p, seed * 977 + u), cfg);
         });

  const char* part = memory ? "_memory_saving" : "_system_saving";
  Json rows = Json::array();
  double sum_gap = 0.0;
  for (int u = 2; u <= 9; ++u) {
    const auto pi = static_cast<std::size_t>(u - 2);
    const Stats s_col = g.stats(pi, std::string("sdem") + part);
    const Stats m_col = g.stats(pi, std::string("mbkps") + part);
    sum_gap += s_col.mean() - m_col.mean();
    t.add_row({std::to_string(u), pct(m_col), pct(s_col),
               Table::fmt(100.0 * (s_col.mean() - m_col.mean()), 2)});

    Json row = Json::object();
    row.set("u", u);
    row.set("mbkps_saving_pct", 100.0 * m_col.mean());
    row.set("mbkps_sem_pct", 100.0 * m_col.sem());
    row.set("sdem_saving_pct", 100.0 * s_col.mean());
    row.set("sdem_sem_pct", 100.0 * s_col.sem());
    row.set("gap_pp", 100.0 * (s_col.mean() - m_col.mean()));
    row.set("per_seed", g.per_seed(pi));
    rows.push_back(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));
  const double avg_gap = 100.0 * sum_gap / 8.0;
  r.footers.push_back(
      memory ? strf("average SDEM-ON memory saving over MBKPS: %.2f pp "
                    "(paper: ~10.02%%)",
                    avg_gap)
             : strf("average SDEM-ON system saving over MBKPS: %.2f pp "
                    "(paper: ~23.45%%)",
                    avg_gap));

  Json params = Json::object();
  params.set("workload", "dspstone");
  params.set("tasks", kTasks);
  params.set("seeds", seeds);
  params.set("saving_component", memory ? "memory" : "system");
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  r.data.set("average_gap_pp", avg_gap);
  return r;
}

// ---------------------------------------------------------------- Fig. 7a/7b

// Shared synthetic-task improvement grid over `x`; rows sweep alpha_m
// (Fig. 7a) or xi_m (Fig. 7b).
ExperimentResult run_fig7(const RunOptions& opt, bool sweep_alpham) {
  const int seeds = opt.seeds > 0 ? opt.seeds : 10;
  constexpr int kTasks = 120;

  ExperimentResult r;
  if (sweep_alpham) {
    r.header_title =
        "Fig 7a — saving improvement (SDEM-ON - MBKPS) over alpha_m x x";
    r.header_what =
        "synthetic tasks (w in [2,5] Mc, regions [10,120] ms); entries are "
        "percentage points of system-wide saving vs MBKP; xi_m = 40 ms";
  } else {
    r.header_title =
        "Fig 7b — saving improvement (SDEM-ON - MBKPS) over xi_m x x";
    r.header_what =
        "synthetic tasks; entries are percentage points of system-wide saving "
        "vs MBKP; alpha_m = 4 W";
  }

  const std::vector<int> levels =
      sweep_alpham ? std::vector<int>{1, 2, 3, 4, 5, 6, 7, 8}
                   : std::vector<int>{15, 20, 25, 30, 40, 50, 60, 70};
  std::vector<std::string> header{sweep_alpham ? "alpha_m \\ x(ms)"
                                               : "xi_m \\ x(ms)"};
  for (int x = 100; x <= 800; x += 100) header.push_back(std::to_string(x));
  Table t(std::move(header));

  // One level-major grid of all 64 (level, x) cells x seeds: the whole
  // sweep occupies the pool even at --seeds 2.
  std::vector<SystemConfig> cfgs;
  cfgs.reserve(levels.size());
  for (int level : levels) {
    auto cfg = paper_cfg();
    if (sweep_alpham)
      cfg.memory.alpha_m = static_cast<double>(level);
    else
      cfg.memory.xi_m = level / 1000.0;
    cfgs.push_back(cfg);
  }
  Grid g(opt.pool, static_cast<int>(levels.size()) * 8, seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           const int level = levels[pi / 8];
           const int x = 100 + static_cast<int>(pi % 8) * 100;
           SyntheticParams p;
           p.num_tasks = kTasks;
           p.max_interarrival = x / 1000.0;
           const std::uint64_t trace_seed =
               sweep_alpham ? seed * 10007 + level * 31 + x
                            : seed * 7717 + level * 13 + x;
           comparison_cell(cell, make_synthetic(p, trace_seed), cfgs[pi / 8]);
         });

  Json rows = Json::array();
  double sum = 0.0;
  int cells = 0;
  for (std::size_t li = 0; li < levels.size(); ++li) {
    const int level = levels[li];
    std::vector<std::string> row{std::to_string(level) +
                                 (sweep_alpham ? " W" : " ms")};
    for (int x = 100; x <= 800; x += 100) {
      const std::size_t pi = li * 8 + static_cast<std::size_t>(x / 100 - 1);
      const double s_sys = g.sum(pi, "sdem_system_saving") / seeds;
      const double m_sys = g.sum(pi, "mbkps_system_saving") / seeds;
      const double imp = 100.0 * (s_sys - m_sys);
      sum += imp;
      ++cells;
      row.push_back(Table::fmt(imp, 2));

      Json cell = Json::object();
      cell.set(sweep_alpham ? "alpha_m_w" : "xi_m_ms", level);
      cell.set("x_ms", x);
      cell.set("sdem_system_saving_pct", 100.0 * s_sys);
      cell.set("mbkps_system_saving_pct", 100.0 * m_sys);
      cell.set("improvement_pp", imp);
      cell.set("per_seed", g.per_seed(pi));
      rows.push_back(std::move(cell));
    }
    t.add_row(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));
  r.footers.push_back(strf("average improvement: %.2f pp (paper: ~%s%%)",
                           sum / cells, sweep_alpham ? "9.74" : "10.52"));

  Json params = Json::object();
  params.set("workload", "synthetic");
  params.set("tasks", kTasks);
  params.set("seeds", seeds);
  params.set(sweep_alpham ? "alpha_m_w" : "xi_m_ms", [&] {
    Json arr = Json::array();
    for (int level : levels) arr.push_back(level);
    return arr;
  }());
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  r.data.set("average_improvement_pp", sum / cells);
  return r;
}

// ----------------------------------------------------------------- Table 4

ExperimentResult run_table4(const RunOptions& opt) {
  const auto cfg = paper_cfg();
  const int seeds = opt.seeds > 0 ? opt.seeds : 10;

  ExperimentResult r;
  r.header_title = "Table 4 — parameter grid and the default operating point";
  r.header_what = "* marks the default used when sweeping other parameters";

  {
    Table t({"point", "1", "2", "3", "4", "5", "6", "7", "8"});
    t.add_row({"x (ms)", "100", "200", "300", "400*", "500", "600", "700",
               "800"});
    t.add_row({"alpha_m (W)", "1", "2", "3", "4*", "5", "6", "7", "8"});
    t.add_row({"xi_m (ms)", "15", "20", "25", "30", "40*", "50", "60", "70"});
    r.tables.push_back(std::move(t));
  }

  Grid g(opt.pool, 1, seeds,
         [&](std::size_t, std::uint64_t seed, Json& cell) {
           SyntheticParams p;
           p.num_tasks = 120;
           p.max_interarrival = 0.400;
           comparison_cell(cell, make_synthetic(p, seed * 97), cfg);
         });
  const double e_mbkp = g.sum(0, "energy_mbkp_j");
  const double e_mbkps = g.sum(0, "energy_mbkps_j");
  const double e_sdem = g.sum(0, "energy_sdem_j");
  const double sleep_sdem = g.sum(0, "memory_sleep_sdem_s");
  const double sleep_mbkps = g.sum(0, "memory_sleep_mbkps_s");
  Table t({"metric", "MBKP", "MBKPS", "SDEM-ON"});
  t.add_row({"system energy (J, avg)", Table::fmt(e_mbkp / seeds, 4),
             Table::fmt(e_mbkps / seeds, 4), Table::fmt(e_sdem / seeds, 4)});
  t.add_row({"saving vs MBKP (%)", "0.00",
             Table::fmt(100.0 * (e_mbkp - e_mbkps) / e_mbkp, 2),
             Table::fmt(100.0 * (e_mbkp - e_sdem) / e_mbkp, 2)});
  t.add_row({"memory sleep (s, avg)", "0.0000",
             Table::fmt(sleep_mbkps / seeds, 4),
             Table::fmt(sleep_sdem / seeds, 4)});
  r.tables.push_back(std::move(t));

  Json anchor = Json::object();
  anchor.set("seeds", seeds);
  anchor.set("tasks", 120);
  anchor.set("x_ms", 400);
  anchor.set("energy_mbkp_j_avg", e_mbkp / seeds);
  anchor.set("energy_mbkps_j_avg", e_mbkps / seeds);
  anchor.set("energy_sdem_j_avg", e_sdem / seeds);
  anchor.set("mbkps_saving_pct", 100.0 * (e_mbkp - e_mbkps) / e_mbkp);
  anchor.set("sdem_saving_pct", 100.0 * (e_mbkp - e_sdem) / e_mbkp);
  anchor.set("memory_sleep_mbkps_s_avg", sleep_mbkps / seeds);
  anchor.set("memory_sleep_sdem_s_avg", sleep_sdem / seeds);
  anchor.set("per_seed", g.per_seed(0));
  r.solver_seconds_total = g.solver_seconds();

  Json grid = Json::object();
  const auto int_array = [](std::initializer_list<int> xs) {
    Json arr = Json::array();
    for (int x : xs) arr.push_back(x);
    return arr;
  };
  grid.set("x_ms", int_array({100, 200, 300, 400, 500, 600, 700, 800}));
  grid.set("alpha_m_w", int_array({1, 2, 3, 4, 5, 6, 7, 8}));
  grid.set("xi_m_ms", int_array({15, 20, 25, 30, 40, 50, 60, 70}));
  Json defaults = Json::object();
  defaults.set("x_ms", 400);
  defaults.set("alpha_m_w", 4);
  defaults.set("xi_m_ms", 40);
  grid.set("defaults", std::move(defaults));

  r.data = Json::object();
  r.data.set("grid", std::move(grid));
  r.data.set("anchor", std::move(anchor));
  return r;
}

// ----------------------------------------------------------------- Table 1

/// Best-of-`reps` wall time of f, in ms.
template <typename F>
double time_best_ms(F&& f, int reps) {
  double best = 1e18;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

// Runtime scaling of every scheme; the JSON keeps the full-precision wall
// times (they are the payload, so --stable does not strip them) plus the
// implemented-complexity labels docs/performance.md tabulates. Timings in
// the tables come from serial solves (comparable across machines and to the
// pre-incremental baseline); the agreeable rows additionally record the
// pool-parallel block-table fill in the JSON.
ExperimentResult run_table1(const RunOptions& opt) {
  ExperimentResult r;
  r.header_title = "Table 1 — runtime scaling of the SDEM schemes";
  r.header_what = "best-of-3 wall times (ms); doubling n shows the growth rate";

  Json common = Json::array();
  {
    Table t({"n", "common-release a=0 scan", "a=0 binary", "a!=0 scan",
             "transition xi_m=40ms", "discrete A57"});
    auto cfg = paper_cfg();
    cfg.memory.xi_m = 0.0;
    const FrequencyLadder a57 = FrequencyLadder::a57_opps();
    for (int n : {1000, 2000, 4000, 8000, 16000, 32000}) {
      const TaskSet ts = make_common_release(n, 0.0, 42);
      const double scan =
          time_best_ms([&] { solve_common_release_alpha0(ts, cfg); }, 3);
      const double bin =
          time_best_ms([&] { solve_common_release_alpha0_binary(ts, cfg); }, 3);
      auto cfg_a = cfg;
      cfg_a.core.alpha = 0.31;
      const double alpha =
          time_best_ms([&] { solve_common_release_alpha(ts, cfg_a); }, 3);
      // The Section 7 instance: memory and core transition overheads.
      auto cfg_t = cfg_a;
      cfg_t.memory.xi_m = 0.040;
      cfg_t.core.xi = 0.002;
      const double transition =
          time_best_ms([&] { solve_common_release_transition(ts, cfg_t); }, 3);
      const double discrete = time_best_ms(
          [&] { solve_common_release_discrete(ts, cfg_a, a57); }, 3);
      t.add_row({std::to_string(n), Table::fmt(scan, 3), Table::fmt(bin, 3),
                 Table::fmt(alpha, 3), Table::fmt(transition, 3),
                 Table::fmt(discrete, 3)});
      Json row = Json::object();
      row.set("n", n);
      row.set("scan_ms", scan);
      row.set("binary_ms", bin);
      row.set("alpha_scan_ms", alpha);
      row.set("transition_ms", transition);
      row.set("discrete_ms", discrete);
      common.push_back(std::move(row));
    }
    r.tables.push_back(std::move(t));
  }

  Json agreeable = Json::array();
  {
    Table t({"n", "agreeable DP a=0 (ms)", "agreeable DP a!=0 (ms)"});
    for (int n : {4, 6, 8, 10, 12}) {
      const TaskSet ts = make_agreeable(n, 7, 0.060);
      auto cfg0 = paper_cfg();
      cfg0.core.alpha = 0.0;
      cfg0.memory.xi_m = 0.0;
      auto cfga = paper_cfg();
      cfga.memory.xi_m = 0.0;
      const double t0 = time_best_ms([&] { solve_agreeable(ts, cfg0); }, 1);
      const double ta = time_best_ms([&] { solve_agreeable(ts, cfga); }, 1);
      t.add_row({std::to_string(n), Table::fmt(t0, 2), Table::fmt(ta, 2)});
      Json row = Json::object();
      row.set("n", n);
      row.set("dp_alpha0_ms", t0);
      row.set("dp_alpha_ms", ta);
      if (opt.pool != nullptr) {
        row.set("dp_alpha0_pooled_ms", time_best_ms([&] {
                  solve_agreeable(ts, cfg0, opt.pool);
                }, 1));
        row.set("dp_alpha_pooled_ms", time_best_ms([&] {
                  solve_agreeable(ts, cfga, opt.pool);
                }, 1));
      }
      agreeable.push_back(std::move(row));
    }
    r.tables.push_back(std::move(t));
  }

  Json online = Json::array();
  {
    Table t({"tasks", "SDEM-ON full simulation (ms)", "replans"});
    for (int n : {100, 200, 400, 800}) {
      SyntheticParams p;
      p.num_tasks = n;
      p.max_interarrival = 0.200;
      const TaskSet ts = make_synthetic(p, 3);
      SdemOnPolicy pol;
      SimResult res;
      const double ms =
          time_best_ms([&] { res = simulate(ts, paper_cfg(), pol); }, 1);
      t.add_row({std::to_string(n), Table::fmt(ms, 2),
                 std::to_string(res.replans)});
      Json row = Json::object();
      row.set("tasks", n);
      row.set("sim_ms", ms);
      row.set("replans", res.replans);
      online.push_back(std::move(row));
    }
    r.tables.push_back(std::move(t));
  }

  Json complexity = Json::object();
  complexity.set("common_release_alpha0", "O(n log n) sort + O(n) scan");
  complexity.set("common_release_alpha0_binary", "O(n log n)");
  complexity.set("common_release_alpha",
                 "O(n log n) (paper: O(n^2); suffix sums here)");
  complexity.set("common_release_transition",
                 "O(n log n) sort + one breakpoint sweep, closed-form "
                 "stationary point per piece");
  complexity.set("common_release_discrete",
                 "O(nL log nL) sort + one sweep over the piecewise-linear "
                 "objective's breakpoints (L ladder levels)");
  complexity.set("agreeable_dp",
                 "O(n^2) incremental block table x O(k) boxes/row "
                 "(paper: O(n^4+n^2) / O(n^5+n^2); was per-pair re-solve)");
  complexity.set("online_sdem", "one Section 4 solve per arrival");

  r.data = Json::object();
  r.data.set("common_release", std::move(common));
  r.data.set("agreeable_dp", std::move(agreeable));
  r.data.set("online_sim", std::move(online));
  r.data.set("implemented_complexity", std::move(complexity));
  return r;
}

// ------------------------------------------------------- Theorem 1 demo

// Theorem 1: for common release/deadline tasks on C = 2 cores with
// alpha = 0, the optimal energy (Eq. 3) is reached exactly by the
// workload-balanced split, so the bounded-core case is PARTITION in
// disguise. The first table shows the exact solver's cost exploding with n
// while LPT stays cheap, and how close LPT + local search gets to the
// balanced optimum; the second compares exhaustive C^n assignment with LPT
// for C = 2..4 at n = 9. Energies and gaps are deterministic; the `*_ms`
// single-run timings are measurements, which the regression gate strips.
ExperimentResult run_bounded_partition(const RunOptions&) {
  auto cfg = paper_cfg();
  cfg.core.alpha = 0.0;
  cfg.core.s_up = 0.0;  // unconstrained, per the Theorem 1 setting
  constexpr double kDeadline = 0.100;

  ExperimentResult r;
  r.header_title = "Theorem 1 — bounded cores reduce to PARTITION";
  r.header_what =
      "exact = meet-in-the-middle subset sums (C = 2) or all C^n "
      "assignments (small n); LPT = longest-processing-time + pairwise "
      "local search";

  Json two_core = Json::array();
  {
    Table t({"n", "exact energy (J)", "LPT+LS (J)", "raw LPT gap %",
             "LPT+LS gap %", "exact time (ms)", "LPT time (ms)"});
    for (int n : {8, 12, 16, 20, 24, 28}) {
      const TaskSet ts = make_common_release(n, 0.0, 1234 + n, 2.0, 5.0,
                                             kDeadline, kDeadline);
      BoundedResult exact, lpt;
      const double exact_ms = time_best_ms(
          [&] { exact = solve_bounded_exact2(ts, cfg, kDeadline); }, 1);
      const double lpt_ms = time_best_ms(
          [&] { lpt = solve_bounded_lpt(ts, cfg, kDeadline, 2); }, 1);
      const BoundedResult raw = solve_bounded_lpt(ts, cfg, kDeadline, 2,
                                                  /*local_search=*/false);
      const double raw_gap = 100.0 * (raw.energy / exact.energy - 1.0);
      const double lpt_gap = 100.0 * (lpt.energy / exact.energy - 1.0);
      t.add_row({std::to_string(n), Table::fmt(exact.energy, 6),
                 Table::fmt(lpt.energy, 6), Table::fmt(raw_gap, 4),
                 Table::fmt(lpt_gap, 4), Table::fmt(exact_ms, 3),
                 Table::fmt(lpt_ms, 3)});
      Json row = Json::object();
      row.set("n", n);
      row.set("exact_energy_j", exact.energy);
      row.set("lpt_ls_energy_j", lpt.energy);
      row.set("raw_lpt_energy_j", raw.energy);
      row.set("raw_lpt_gap_pct", raw_gap);
      row.set("lpt_ls_gap_pct", lpt_gap);
      row.set("exact_ms", exact_ms);
      row.set("lpt_ms", lpt_ms);
      two_core.push_back(std::move(row));
    }
    r.tables.push_back(std::move(t));
  }

  Json multi_core = Json::array();
  {
    constexpr int kTasks = 9;
    Table t({"n", "C", "exact (J)", "LPT (J)", "gap %"});
    for (int c : {2, 3, 4}) {
      const TaskSet ts = make_common_release(kTasks, 0.0, 777 + c, 2.0, 5.0,
                                             kDeadline, kDeadline);
      const BoundedResult exact = solve_bounded_exact(ts, cfg, kDeadline, c);
      const BoundedResult lpt = solve_bounded_lpt(ts, cfg, kDeadline, c);
      const double gap = 100.0 * (lpt.energy / exact.energy - 1.0);
      t.add_row({std::to_string(kTasks), std::to_string(c),
                 Table::fmt(exact.energy, 6), Table::fmt(lpt.energy, 6),
                 Table::fmt(gap, 4)});
      Json row = Json::object();
      row.set("n", kTasks);
      row.set("cores", c);
      row.set("exact_energy_j", exact.energy);
      row.set("lpt_energy_j", lpt.energy);
      row.set("gap_pct", gap);
      multi_core.push_back(std::move(row));
    }
    r.tables.push_back(std::move(t));
  }

  Json params = Json::object();
  params.set("deadline_s", kDeadline);
  params.set("core_alpha_w", 0.0);
  params.set("work_mcycles_lo", 2.0);
  params.set("work_mcycles_hi", 5.0);
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("two_core", std::move(two_core));
  r.data.set("multi_core", std::move(multi_core));
  return r;
}

// ---------------------------------------------------------- Blocks ablation

// Section 5 block DP vs the two degenerate partitions, spread x seed grid.
ExperimentResult run_ablation_blocks(const RunOptions& opt) {
  auto cfg = paper_cfg();
  cfg.memory.xi_m = 0.0;
  constexpr int kN = 8;
  const int seeds = opt.seeds > 0 ? opt.seeds : 8;
  const std::vector<double> spreads{0.005, 0.020, 0.050, 0.100, 0.200, 0.400};

  ExperimentResult r;
  r.header_title = "Ablation — Section 5 block DP vs degenerate partitions";
  r.header_what = "agreeable sets, n = 8; spread = max inter-arrival (s)";

  Grid g(opt.pool, static_cast<int>(spreads.size()), seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           const double spread = spreads[pi];
           const TaskSet ts =
               make_agreeable(kN, seed * 131 + int(spread * 1e4), spread);
           const auto dp = solve_agreeable(ts, cfg);
           const auto sorted = ts.sorted_by_deadline().tasks();
           cell.set("dp_energy_j", dp.energy);
           cell.set("one_block_energy_j", solve_block(sorted, cfg).energy);
           double each = 0.0;
           for (const auto& task : sorted) {
             each += solve_block({task}, cfg).energy;
           }
           cell.set("per_task_energy_j", each);
           cell.set("dp_blocks", dp.case_index);
         });

  Table t({"spread (s)", "DP energy (J)", "one block (J)",
           "per-task blocks (J)", "DP blocks"});
  Json rows = Json::array();
  for (std::size_t pi = 0; pi < spreads.size(); ++pi) {
    const double e_dp = g.sum(pi, "dp_energy_j");
    const double e_one = g.sum(pi, "one_block_energy_j");
    const double e_each = g.sum(pi, "per_task_energy_j");
    const double blocks = g.sum(pi, "dp_blocks");
    t.add_row({Table::fmt(spreads[pi], 3), Table::fmt(e_dp / seeds, 5),
               Table::fmt(e_one / seeds, 5), Table::fmt(e_each / seeds, 5),
               Table::fmt(blocks / seeds, 1)});
    Json row = Json::object();
    row.set("spread_s", spreads[pi]);
    row.set("dp_energy_j_avg", e_dp / seeds);
    row.set("one_block_energy_j_avg", e_one / seeds);
    row.set("per_task_energy_j_avg", e_each / seeds);
    row.set("dp_blocks_avg", blocks / seeds);
    row.set("per_seed", g.per_seed(pi));
    rows.push_back(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));

  Json params = Json::object();
  params.set("tasks", kN);
  params.set("seeds", seeds);
  params.set("xi_m", 0.0);
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  return r;
}

// --------------------------------------------------- Online vs offline ratio

// Empirical competitive ratio of SDEM-ON against the Section 5 DP on
// agreeable inputs, plus the memory-oblivious per-core comparator.
// Infeasible offline solves set only "feasible"; the folds skip them.
ExperimentResult run_online_vs_offline(const RunOptions& opt) {
  auto cfg = paper_cfg();
  cfg.core.s_min = 0.0;
  cfg.memory.xi_m = 0.0;
  cfg.num_cores = 0;  // unbounded, matching the offline model
  const int seeds = opt.seeds > 0 ? opt.seeds : 12;
  constexpr int kTasks = 10;
  const std::vector<double> spreads{0.010, 0.040, 0.100, 0.250};

  ExperimentResult r;
  r.header_title = "SDEM-ON vs offline optimum (agreeable inputs)";
  r.header_what =
      "ratio = E(online) / E(offline DP); also the memory-oblivious "
      "per-core critical-speed scheduler on the same traces";

  Grid g(opt.pool, static_cast<int>(spreads.size()), seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           const double spread = spreads[pi];
           const TaskSet ts =
               make_agreeable(kTasks, seed * 577 + int(spread * 1e4), spread);
           const auto offline = solve_agreeable(ts, cfg);
           cell.set("feasible", offline.feasible);
           if (!offline.feasible) return;
           SdemOnPolicy pol;
           const auto sim = simulate(ts, cfg, pol);
           EnergyOptions opts;  // busy-span horizon, same as the offline model
           const EnergyBreakdown online_e =
               compute_energy(sim.schedule, cfg, opts);
           cell.set("ratio", online_e.system_total() / offline.energy);

           // Memory-oblivious: every task on its own core, per-core
           // critical-speed sleep schedule; memory follows whatever union
           // results.
           Schedule per_core;
           int core = 0;
           for (const auto& task : ts.tasks()) {
             const auto sss = solve_single_core_sleep(
                 {{task.id, task.release, task.deadline, task.work}},
                 cfg.core, core++);
             for (const auto& seg : sss.schedule.segments()) per_core.add(seg);
           }
           cell.set("oblivious_ratio",
                    compute_energy(per_core, cfg, opts).system_total() /
                        offline.energy);
           // Memory sleep-interval statistics of the online schedule
           // (count / min / mean / max, seconds) — JSON-only.
           cell.set("memory_sleep_cycles", online_e.memory_sleep_cycles);
           cell.set("memory_sleep_min_s", online_e.memory_sleep_min);
           cell.set("memory_sleep_mean_s", online_e.memory_sleep_mean());
           cell.set("memory_sleep_max_s", online_e.memory_sleep_max);
         });

  Table t({"spread (ms)", "avg ratio", "worst ratio",
           "memory-oblivious ratio"});
  Json rows = Json::array();
  for (std::size_t pi = 0; pi < spreads.size(); ++pi) {
    const double spread = spreads[pi];
    const double sum = g.sum(pi, "ratio");
    const double worst = g.max(pi, "ratio");
    const double obliv = g.sum(pi, "oblivious_ratio");
    const auto counted = static_cast<int>(g.count(pi, "ratio"));
    t.add_row({Table::fmt(spread * 1e3, 0), Table::fmt(sum / counted, 4),
               Table::fmt(worst, 4), Table::fmt(obliv / counted, 4)});
    Json row = Json::object();
    row.set("spread_ms", spread * 1e3);
    row.set("avg_ratio", sum / counted);
    row.set("worst_ratio", worst);
    row.set("oblivious_ratio_avg", obliv / counted);
    row.set("memory_sleep_cycles_avg",
            g.sum(pi, "memory_sleep_cycles") / counted);
    row.set("memory_sleep_mean_s_avg",
            g.sum(pi, "memory_sleep_mean_s") / counted);
    row.set("counted", counted);
    row.set("per_seed", g.per_seed(pi));
    rows.push_back(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));
  r.footers.push_back(
      "the DP is optimal among non-preemptive schedules only and SDEM-ON "
      "preempts, so a ratio may fall below 1; above 1, the online gap is the "
      "price of not knowing the future,");
  r.footers.push_back(
      "the oblivious gap is the price of ignoring the shared memory (the "
      "paper's core argument).");

  Json params = Json::object();
  params.set("tasks", kTasks);
  params.set("seeds", seeds);
  params.set("spreads_s", [&] {
    Json arr = Json::array();
    for (double s : spreads) arr.push_back(s);
    return arr;
  }());
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  return r;
}

// ----------------------------------------------------------- Policy poles

// The title question as a bench: five online policies (the two poles, the
// single-core folklore answer, MBKPS, SDEM-ON) on the same synthetic traces
// across utilizations.
ExperimentResult run_policy_poles(const RunOptions& opt) {
  const auto cfg = paper_cfg();
  const int seeds = opt.seeds > 0 ? opt.seeds : 10;
  constexpr int kPoints = 8;  // x = 100..800 ms
  constexpr int kPolicies = 5;
  static const char* kNames[kPolicies] = {"race@s_up", "stretch", "critical",
                                          "MBKPS", "SDEM-ON"};
  const auto key = [](int i) {
    return std::string("energy_") + kNames[i] + "_j";
  };

  ExperimentResult r;
  r.header_title =
      "Race to idle or not — the five policies (system energy, J)";
  r.header_what = "synthetic traces, 120 tasks, paper defaults; avg over " +
                  std::to_string(seeds) + " seeds";

  Grid g(opt.pool, kPoints, seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           const int x = 100 + static_cast<int>(pi) * 100;
           SyntheticParams p;
           p.num_tasks = 120;
           p.max_interarrival = x / 1000.0;
           const TaskSet ts = make_synthetic(p, seed * 811 + x);

           RaceToIdlePolicy race;
           StretchPolicy stretch;
           CriticalSpeedPolicy crit;
           MbkpPolicy mbkp;
           SdemOnPolicy sdem;
           OnlinePolicy* pols[kPolicies] = {&race, &stretch, &crit, &mbkp,
                                            &sdem};
           for (int i = 0; i < kPolicies; ++i) {
             const auto sim = simulate(ts, cfg, *pols[i]);
             cell.set(key(i), evaluate_policy(sim, cfg,
                                              SleepDiscipline::kOptimal, "x")
                                  .energy.system_total());
           }
         });

  Table t({"x (ms)", "race@s_up", "stretch", "critical", "MBKPS", "SDEM-ON"});
  Json rows = Json::array();
  for (std::size_t pi = 0; pi < kPoints; ++pi) {
    const int x = 100 + static_cast<int>(pi) * 100;
    Json row = Json::object();
    row.set("x_ms", x);
    std::vector<std::string> cols{std::to_string(x)};
    for (int i = 0; i < kPolicies; ++i) {
      const double avg = g.sum(pi, key(i)) / seeds;
      cols.push_back(Table::fmt(avg, 3));
      row.set(key(i) + "_avg", avg);
    }
    t.add_row(std::move(cols));
    row.set("per_seed", g.per_seed(pi));
    rows.push_back(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));

  Json params = Json::object();
  params.set("workload", "synthetic");
  params.set("tasks", 120);
  params.set("seeds", seeds);
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  return r;
}

// ------------------------------------------------------- Voltage islands

// Extension bench: voltage-island granularity (the paper's future work).
ExperimentResult run_islands(const RunOptions& opt) {
  auto cfg = paper_cfg();
  cfg.core.s_min = 0.0;
  cfg.memory.xi_m = 0.0;
  const int seeds = opt.seeds > 0 ? opt.seeds : 20;
  constexpr int kTasks = 16;
  const std::vector<int> island_counts{16, 8, 4, 2, 1};

  ExperimentResult r;
  r.header_title =
      "Extension — voltage-island granularity (common release)";
  r.header_what = "energy relative to per-core rails (islands of 1); " +
                  std::to_string(kTasks) + " tasks, " +
                  std::to_string(seeds) + " seeds";

  Grid g(opt.pool, static_cast<int>(island_counts.size()), seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           const int islands = island_counts[pi];
           const TaskSet ts = make_common_release(kTasks, 0.0, seed * 397);
           std::vector<int> ones(ts.size());
           std::vector<int> robin(ts.size());
           for (std::size_t i = 0; i < ts.size(); ++i) {
             ones[i] = static_cast<int>(i);
             robin[i] = static_cast<int>(i) % islands;
           }
           cell.set("per_core_energy_j",
                    solve_common_release_islands(ts, cfg, ones).energy);
           cell.set("similar_speed_energy_j",
                    solve_common_release_islands(
                        ts, cfg, assign_islands_similar_speed(ts, islands))
                        .energy);
           cell.set("round_robin_energy_j",
                    solve_common_release_islands(ts, cfg, robin).energy);
         });

  Table t({"islands", "tasks/rail", "similar-speed grouping +%",
           "round-robin grouping +%"});
  Json rows = Json::array();
  for (std::size_t pi = 0; pi < island_counts.size(); ++pi) {
    const int islands = island_counts[pi];
    const double base = g.sum(pi, "per_core_energy_j");
    const double similar = g.sum(pi, "similar_speed_energy_j");
    const double rr = g.sum(pi, "round_robin_energy_j");
    t.add_row({std::to_string(islands),
               std::to_string(kTasks / islands),
               Table::fmt(100.0 * (similar / base - 1.0), 2),
               Table::fmt(100.0 * (rr / base - 1.0), 2)});
    Json row = Json::object();
    row.set("islands", islands);
    row.set("tasks_per_rail", kTasks / islands);
    row.set("similar_speed_overhead_pct", 100.0 * (similar / base - 1.0));
    row.set("round_robin_overhead_pct", 100.0 * (rr / base - 1.0));
    row.set("per_seed", g.per_seed(pi));
    rows.push_back(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));

  Json params = Json::object();
  params.set("tasks", kTasks);
  params.set("seeds", seeds);
  params.set("islands", [&] {
    Json arr = Json::array();
    for (int i : island_counts) arr.push_back(i);
    return arr;
  }());
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  return r;
}

// --------------------------------------------------- Controller contention

// Assumption probe: what does SDEM-ON's alignment do to memory-controller
// contention?
ExperimentResult run_contention(const RunOptions& opt) {
  const auto cfg = paper_cfg();
  ContentionParams cp;  // 8 banks, 50 ns service, 1 access / 500 cycles
  const int seeds = opt.seeds > 0 ? opt.seeds : 10;
  constexpr int kPoints = 4;  // x = 100, 300, 500, 700 ms

  ExperimentResult r;
  r.header_title =
      "Assumption probe — controller contention under alignment";
  r.header_what =
      "fluid M/D/1 model, 8 banks, 50 ns service, 2000 accesses/Mc; "
      "peak u and mean wait per policy";

  Grid g(opt.pool, kPoints, seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           const int x = 100 + static_cast<int>(pi) * 200;
           SyntheticParams p;
           p.num_tasks = 120;
           p.max_interarrival = x / 1000.0;
           const TaskSet ts = make_synthetic(p, seed * 211 + x);
           SdemOnPolicy sdem;
           MbkpPolicy mbkp;
           const auto a =
               analyze_contention(simulate(ts, cfg, sdem).schedule, cp);
           const auto b =
               analyze_contention(simulate(ts, cfg, mbkp).schedule, cp);
           cell.set("sdem_peak_utilization", a.peak_utilization);
           cell.set("mbkp_peak_utilization", b.peak_utilization);
           cell.set("sdem_mean_wait_s", a.mean_wait);
           cell.set("mbkp_mean_wait_s", b.mean_wait);
           cell.set("saturated_fraction", a.saturated_fraction);
         });

  Table t({"x (ms)", "SDEM-ON peak u", "MBKP peak u", "SDEM-ON wait (ns)",
           "MBKP wait (ns)", "saturated %"});
  Json rows = Json::array();
  for (std::size_t pi = 0; pi < kPoints; ++pi) {
    const int x = 100 + static_cast<int>(pi) * 200;
    const double pu_s = g.sum(pi, "sdem_peak_utilization");
    const double pu_m = g.sum(pi, "mbkp_peak_utilization");
    const double w_s = g.sum(pi, "sdem_mean_wait_s");
    const double w_m = g.sum(pi, "mbkp_mean_wait_s");
    const double sat = g.sum(pi, "saturated_fraction");
    t.add_row({std::to_string(x), Table::fmt(pu_s / seeds, 4),
               Table::fmt(pu_m / seeds, 4),
               Table::fmt(1e9 * w_s / seeds, 2),
               Table::fmt(1e9 * w_m / seeds, 2),
               Table::fmt(100.0 * sat / seeds, 2)});
    Json row = Json::object();
    row.set("x_ms", x);
    row.set("sdem_peak_utilization_avg", pu_s / seeds);
    row.set("mbkp_peak_utilization_avg", pu_m / seeds);
    row.set("sdem_mean_wait_ns_avg", 1e9 * w_s / seeds);
    row.set("mbkp_mean_wait_ns_avg", 1e9 * w_m / seeds);
    row.set("saturated_pct_avg", 100.0 * sat / seeds);
    row.set("per_seed", g.per_seed(pi));
    rows.push_back(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));
  r.footers.push_back(
      "alignment concentrates accesses: higher peaks, but far from "
      "saturation at these parameters —");
  r.footers.push_back(
      "the paper's negligible-delay assumption survives its own scheduler.");

  Json params = Json::object();
  params.set("workload", "synthetic");
  params.set("tasks", 120);
  params.set("seeds", seeds);
  params.set("banks", cp.banks);
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  return r;
}

// ------------------------------------------------------ DRAM abstraction

// Substrate validation: the paper's (alpha_m, xi_m) abstraction vs the
// DRAM power-down/self-refresh ladder charged on the actual SDEM-ON
// schedules. The naps/sleeps column is an integer-division average.
ExperimentResult run_dram_abstraction(const RunOptions& opt) {
  const auto dram = DramPowerParams::paper_50nm();
  const MemoryPower dram_memory = dram.memory();
  const auto abs = abstraction_for(dram);
  auto cfg = paper_cfg();
  cfg.memory.alpha_m = abs.alpha_m;
  cfg.memory.xi_m = abs.xi_m;
  const int seeds = opt.seeds > 0 ? opt.seeds : 10;
  constexpr int kPoints = 8;  // x = 100..800 ms

  ExperimentResult r;
  r.header_title =
      "Substrate — DRAM state machine vs the paper's abstraction";
  r.header_what =
      "machine: active 4.25 W / power-down 1.4 W / self-refresh "
      "0.25 W; abstraction: alpha_m = " + Table::fmt(abs.alpha_m, 2) +
      " W, xi_m = " + Table::fmt(abs.xi_m * 1e3, 0) + " ms";

  Grid g(opt.pool, kPoints, seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           const int x = 100 + static_cast<int>(pi) * 100;
           SyntheticParams p;
           p.num_tasks = 120;
           p.max_interarrival = x / 1000.0;
           const TaskSet ts = make_synthetic(p, seed * 53 + x);
           SdemOnPolicy pol;
           const SimResult sim = simulate(ts, cfg, pol);
           EnergyOptions eopt;
           eopt.horizon_lo = sim.horizon_lo;
           eopt.horizon_hi = sim.horizon_hi;
           EnergyBreakdown m;
           add_memory_energy(sim.schedule.memory_busy(), dram_memory, eopt, m);
           cell.set("machine_j", m.memory_total());
           const auto ev =
               evaluate_policy(sim, cfg, SleepDiscipline::kOptimal, "sdem");
           cell.set("abstract_j",
                    ev.energy.memory_total() +
                        abs.floor_power * (sim.horizon_hi - sim.horizon_lo));
           cell.set("powerdown_cycles",
                    static_cast<int>(m.memory_states[0].cycles));
           cell.set("selfrefresh_cycles",
                    static_cast<int>(m.memory_states[1].cycles));
         });

  Table t({"x (ms)", "SDEM-ON machine (J)", "SDEM-ON abstract (J)", "err %",
           "naps/sleeps"});
  Json rows = Json::array();
  for (std::size_t pi = 0; pi < kPoints; ++pi) {
    const int x = 100 + static_cast<int>(pi) * 100;
    const double machine = g.sum(pi, "machine_j");
    const double abstract_j = g.sum(pi, "abstract_j");
    const double naps = g.sum(pi, "powerdown_cycles");
    const double sleeps = g.sum(pi, "selfrefresh_cycles");
    t.add_row({std::to_string(x), Table::fmt(machine / seeds, 3),
               Table::fmt(abstract_j / seeds, 3),
               Table::fmt(100.0 * (abstract_j - machine) / machine, 2),
               std::to_string(static_cast<int>(naps) / seeds) + "/" +
                   std::to_string(static_cast<int>(sleeps) / seeds)});
    Json row = Json::object();
    row.set("x_ms", x);
    row.set("machine_j_avg", machine / seeds);
    row.set("abstract_j_avg", abstract_j / seeds);
    row.set("abstraction_err_pct", 100.0 * (abstract_j - machine) / machine);
    row.set("powerdown_cycles_avg", naps / seeds);
    row.set("selfrefresh_cycles_avg", sleeps / seeds);
    row.set("per_seed", g.per_seed(pi));
    rows.push_back(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));
  r.footers.push_back(
      "positive err % = the abstraction over-charges (machine finds cheaper "
      "shallow states).");

  Json params = Json::object();
  params.set("workload", "synthetic");
  params.set("tasks", 120);
  params.set("seeds", seeds);
  params.set("alpha_m_w", abs.alpha_m);
  params.set("xi_m_s", abs.xi_m);
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  return r;
}

// ------------------------------------------------------ Rank granularity

// Extension: re-account the same SDEM-ON and MBKP schedules with
// rank-granular power-down.
ExperimentResult run_rank_granularity(const RunOptions& opt) {
  const auto cfg = paper_cfg();
  const int seeds = opt.seeds > 0 ? opt.seeds : 10;
  const std::vector<int> rank_counts{1, 2, 4, 8};

  ExperimentResult r;
  r.header_title = "Extension — rank-granular memory power-down";
  r.header_what =
      "memory energy (J, avg) of the same schedules accounted with "
      "1..8 ranks; x = 300 ms, alpha_m = 4 W, xi_m = 40 ms";

  Grid g(opt.pool, static_cast<int>(rank_counts.size()), seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           const int ranks = rank_counts[pi];
           SyntheticParams p;
           p.num_tasks = 120;
           p.max_interarrival = 0.300;
           const TaskSet ts = make_synthetic(p, seed * 41);
           SdemOnPolicy sdem;
           const auto s1 = simulate(ts, cfg, sdem);
           cell.set("sdem_memory_j",
                    rank_memory_energy(s1.schedule, cfg.memory, ranks, 8,
                                       s1.horizon_lo, s1.horizon_hi)
                        .memory_total());
           MbkpPolicy mbkp;
           const auto s2 = simulate(ts, cfg, mbkp);
           cell.set("mbkp_memory_j",
                    rank_memory_energy(s2.schedule, cfg.memory, ranks, 8,
                                       s2.horizon_lo, s2.horizon_hi)
                        .memory_total());
         });

  Table t({"ranks", "SDEM-ON mem (J)", "MBKP-sched mem (J)",
           "SDEM-ON advantage %"});
  Json rows = Json::array();
  for (std::size_t pi = 0; pi < rank_counts.size(); ++pi) {
    const double e_sdem = g.sum(pi, "sdem_memory_j");
    const double e_mbkp = g.sum(pi, "mbkp_memory_j");
    t.add_row({std::to_string(rank_counts[pi]), Table::fmt(e_sdem / seeds, 3),
               Table::fmt(e_mbkp / seeds, 3),
               Table::fmt(100.0 * (e_mbkp - e_sdem) / e_mbkp, 2)});
    Json row = Json::object();
    row.set("ranks", rank_counts[pi]);
    row.set("sdem_memory_j_avg", e_sdem / seeds);
    row.set("mbkp_memory_j_avg", e_mbkp / seeds);
    row.set("sdem_advantage_pct", 100.0 * (e_mbkp - e_sdem) / e_mbkp);
    row.set("per_seed", g.per_seed(pi));
    rows.push_back(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));
  r.footers.push_back(
      "monolithic memory (1 rank) is where coordinating the common idle "
      "time — this paper — matters most.");

  Json params = Json::object();
  params.set("workload", "synthetic");
  params.set("tasks", 120);
  params.set("seeds", seeds);
  params.set("x_ms", 300);
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  return r;
}

// ----------------------------------------------------- Slack reclamation

// Extension: WCET pessimism. Each (fraction, regime, seed) cell simulates
// the reclaiming and non-reclaiming variants once; points are
// fraction-major, regime minor (alpha != 0 before alpha = 0), and each row
// merges its fraction's two points.
ExperimentResult run_slack_reclamation(const RunOptions& opt) {
  const auto cfg = paper_cfg();
  auto cfg0 = cfg;
  cfg0.core.alpha = 0.0;
  cfg0.core.s_min = 0.0;
  const int seeds = opt.seeds > 0 ? opt.seeds : 10;
  const std::vector<double> fracs{1.0, 0.9, 0.7, 0.5, 0.3};

  ExperimentResult r;
  r.header_title = "Extension — slack reclamation (actual / WCET sweep)";
  r.header_what =
      "system energy (J, avg); 'reclaim' replans on completions, "
      "'no-reclaim' keeps the WCET plan; x = 300 ms.\n"
      "Two regimes: the default alpha != 0 races at the critical "
      "speed (per-cycle-optimal already — nothing to reclaim), the "
      "alpha = 0 model stretches, so freed work slows the rest.";

  Grid g(opt.pool, static_cast<int>(fracs.size()) * 2, seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           const double f = fracs[pi / 2];
           const SystemConfig& c_run = (pi % 2 == 0) ? cfg : cfg0;
           SyntheticParams p;
           p.num_tasks = 120;
           p.max_interarrival = 0.300;
           const TaskSet ts = make_synthetic(p, seed * 67);
           std::map<int, double> frac;
           for (const auto& task : ts.tasks()) frac[task.id] = f;
           SdemOnPolicy a, b;
           const auto with = simulate_with_actuals(ts, c_run, a, frac, true);
           const auto without =
               simulate_with_actuals(ts, c_run, b, frac, false);
           cell.set("alpha_zero", pi % 2 == 1);
           cell.set("reclaim_energy_j",
                    evaluate_policy(with, c_run, SleepDiscipline::kOptimal, "r")
                        .energy.system_total());
           cell.set("no_reclaim_energy_j",
                    evaluate_policy(without, c_run, SleepDiscipline::kOptimal,
                                    "n")
                        .energy.system_total());
         });

  Table t({"actual/WCET", "a!=0 reclaim", "a!=0 none", "gain %",
           "a=0 reclaim", "a=0 none", "gain %"});
  Json rows = Json::array();
  for (std::size_t fi = 0; fi < fracs.size(); ++fi) {
    const double w1 = g.sum(fi * 2, "reclaim_energy_j");
    const double n1 = g.sum(fi * 2, "no_reclaim_energy_j");
    const double w0 = g.sum(fi * 2 + 1, "reclaim_energy_j");
    const double n0 = g.sum(fi * 2 + 1, "no_reclaim_energy_j");
    t.add_row({Table::fmt(fracs[fi], 1), Table::fmt(w1 / seeds, 3),
               Table::fmt(n1 / seeds, 3),
               Table::fmt(100.0 * (n1 - w1) / n1, 2),
               Table::fmt(w0 / seeds, 4), Table::fmt(n0 / seeds, 4),
               Table::fmt(100.0 * (n0 - w0) / n0, 2)});
    Json row = Json::object();
    row.set("actual_over_wcet", fracs[fi]);
    row.set("alpha_reclaim_j_avg", w1 / seeds);
    row.set("alpha_no_reclaim_j_avg", n1 / seeds);
    row.set("alpha_gain_pct", 100.0 * (n1 - w1) / n1);
    row.set("alpha0_reclaim_j_avg", w0 / seeds);
    row.set("alpha0_no_reclaim_j_avg", n0 / seeds);
    row.set("alpha0_gain_pct", 100.0 * (n0 - w0) / n0);
    row.set("per_seed", g.per_seed(fi * 2 + 1, g.per_seed(fi * 2)));
    rows.push_back(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));
  r.footers.push_back(
      "Finding: energy falls with actual/WCET (freed work shortens the\n"
      "memory busy time by itself), but replanning to *slow down* the rest\n"
      "adds nothing: speeds already sit at their per-cycle optima and the\n"
      "shared memory punishes any stretch — classic single-core slack\n"
      "reclamation does not transfer to the system-wide problem.");

  Json params = Json::object();
  params.set("workload", "synthetic");
  params.set("tasks", 120);
  params.set("seeds", seeds);
  params.set("x_ms", 300);
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  return r;
}

// ---------------------------------------------------- Access sensitivity

// Extension: whole-execution-access assumption. The f = 1.0 row doubles as
// the baseline the later rows compare against, so folds walk fractions in
// row order.
ExperimentResult run_access_sensitivity(const RunOptions& opt) {
  const auto cfg = paper_cfg();
  const int seeds = opt.seeds > 0 ? opt.seeds : 10;
  const std::vector<double> fracs{1.0, 0.8, 0.6, 0.4, 0.2};

  ExperimentResult r;
  r.header_title = "Extension — memory energy vs per-task access fraction";
  r.header_what =
      "tasks access DRAM only during the first f of each run; "
      "schedules unchanged (planned with f = 1), accounting "
      "refined; x = 400 ms";

  Grid g(opt.pool, static_cast<int>(fracs.size()), seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           SyntheticParams p;
           p.num_tasks = 120;
           p.max_interarrival = 0.400;
           const TaskSet ts = make_synthetic(p, seed * 29);
           std::map<int, TaskAccess> acc;
           for (const auto& task : ts.tasks()) {
             acc[task.id] = {AccessPattern::kPrefix, fracs[pi]};
           }
           const auto memory_j = [&](const SimResult& sim) {
             EnergyOptions eopt;
             eopt.horizon_lo = sim.horizon_lo;
             eopt.horizon_hi = sim.horizon_hi;
             EnergyBreakdown e;
             add_memory_energy(memory_busy_with_access(sim.schedule, acc),
                               cfg.memory, eopt, e);
             return e.memory_total();
           };
           SdemOnPolicy sdem;
           cell.set("sdem_memory_j", memory_j(simulate(ts, cfg, sdem)));
           MbkpPolicy mbkp;
           cell.set("mbkp_memory_j", memory_j(simulate(ts, cfg, mbkp)));
         });

  Table t({"fraction f", "SDEM-ON mem (J)", "vs f=1 %", "MBKP-sched mem (J)",
           "vs f=1 %"});
  Json rows = Json::array();
  double sdem_base = 0.0, mbkp_base = 0.0;
  for (std::size_t pi = 0; pi < fracs.size(); ++pi) {
    const double e_sdem = g.sum(pi, "sdem_memory_j");
    const double e_mbkp = g.sum(pi, "mbkp_memory_j");
    if (fracs[pi] == 1.0) {
      sdem_base = e_sdem;
      mbkp_base = e_mbkp;
    }
    t.add_row({Table::fmt(fracs[pi], 1), Table::fmt(e_sdem / seeds, 3),
               Table::fmt(100.0 * (e_sdem / sdem_base - 1.0), 2),
               Table::fmt(e_mbkp / seeds, 3),
               Table::fmt(100.0 * (e_mbkp / mbkp_base - 1.0), 2)});
    Json row = Json::object();
    row.set("fraction", fracs[pi]);
    row.set("sdem_memory_j_avg", e_sdem / seeds);
    row.set("sdem_vs_full_pct", 100.0 * (e_sdem / sdem_base - 1.0));
    row.set("mbkp_memory_j_avg", e_mbkp / seeds);
    row.set("mbkp_vs_full_pct", 100.0 * (e_mbkp / mbkp_base - 1.0));
    row.set("per_seed", g.per_seed(pi));
    rows.push_back(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));

  Json params = Json::object();
  params.set("workload", "synthetic");
  params.set("tasks", 120);
  params.set("seeds", seeds);
  params.set("x_ms", 400);
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  return r;
}

// ---------------------------------------------------- Discrete ablation

// Ablation: cost of real DVFS ladders. Infeasible continuous solves set
// only "feasible", so the folds skip them, and averages still divide by the
// full seed count.
ExperimentResult run_ablation_discrete(const RunOptions& opt) {
  auto cfg = paper_cfg();
  cfg.core.s_min = 0.0;
  cfg.memory.xi_m = 0.0;
  cfg.num_cores = 0;
  const int seeds = opt.seeds > 0 ? opt.seeds : 20;

  ExperimentResult r;
  r.header_title = "Ablation — discrete DVFS ladders vs continuous speeds";
  r.header_what =
      "Section 4.2 optimum realized on uniform ladders spanning "
      "700..1900 MHz; penalty = (E_disc - E_cont) / E_cont";

  std::vector<std::pair<std::string, FrequencyLadder>> ladders;
  for (int n : {2, 3, 4, 6, 8, 16, 32}) {
    ladders.emplace_back(std::to_string(n) + " uniform",
                         FrequencyLadder::uniform(n, 700.0, 1900.0));
  }
  ladders.emplace_back("A57 OPPs (6)", FrequencyLadder::a57_opps());

  Grid g(opt.pool, static_cast<int>(ladders.size()), seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           const FrequencyLadder& ladder = ladders[pi].second;
           const TaskSet ts = make_common_release(10, 0.0, seed * 61);
           const auto cont = solve_common_release_alpha(ts, cfg);
           cell.set("feasible", cont.feasible);
           if (!cont.feasible) return;
           const double base = system_energy(cont.schedule, cfg);
           const auto d = discretize_schedule(cont.schedule, ladder);
           cell.set("post_hoc_penalty",
                    (system_energy(d.schedule, cfg) - base) / base);
           const auto aware = solve_common_release_discrete(ts, cfg, ladder);
           cell.set("ladder_aware_penalty", (aware.energy - base) / base);
           cell.set("splits", d.splits);
         });

  Table t({"ladder", "post-hoc penalty %", "ladder-aware penalty %",
           "max post-hoc %", "avg splits"});
  Json rows = Json::array();
  for (std::size_t pi = 0; pi < ladders.size(); ++pi) {
    const double sum = g.sum(pi, "post_hoc_penalty");
    const double worst = g.max(pi, "post_hoc_penalty");
    const double splits = g.sum(pi, "splits");
    const double aware_sum = g.sum(pi, "ladder_aware_penalty");
    t.add_row({ladders[pi].first, Table::fmt(100.0 * sum / seeds, 3),
               Table::fmt(100.0 * aware_sum / seeds, 3),
               Table::fmt(100.0 * worst, 3), Table::fmt(splits / seeds, 1)});
    Json row = Json::object();
    row.set("ladder", ladders[pi].first);
    row.set("post_hoc_penalty_pct_avg", 100.0 * sum / seeds);
    row.set("ladder_aware_penalty_pct_avg", 100.0 * aware_sum / seeds);
    row.set("max_post_hoc_pct", 100.0 * worst);
    row.set("splits_avg", splits / seeds);
    row.set("per_seed", g.per_seed(pi));
    rows.push_back(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));

  Json params = Json::object();
  params.set("tasks", 10);
  params.set("seeds", seeds);
  params.set("ladder_range_mhz", [&] {
    Json arr = Json::array();
    arr.push_back(700);
    arr.push_back(1900);
    return arr;
  }());
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  return r;
}

// --------------------------------------------- Procrastination ablation

// Ablation: value of step 5 (alignment sleep) vs the per-replan speed
// selection alone.
ExperimentResult run_ablation_procrastination(const RunOptions& opt) {
  const auto cfg = paper_cfg();
  const int seeds = opt.seeds > 0 ? opt.seeds : 10;
  constexpr int kTasks = 120;
  constexpr int kPoints = 8;  // x = 100..800 ms

  ExperimentResult r;
  r.header_title =
      "Ablation — procrastination (step 5 of the online listing)";
  r.header_what =
      "system energy saving vs MBKP; eager = same speeds, no "
      "alignment sleep";

  Grid g(opt.pool, kPoints, seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           const int x = 100 + static_cast<int>(pi) * 100;
           SyntheticParams p;
           p.num_tasks = kTasks;
           p.max_interarrival = x / 1000.0;
           const TaskSet trace = make_synthetic(p, seed * 4241 + x);
           const auto cmp = run_comparison(trace, cfg);
           cell.set("energy_mbkp_j", cmp.mbkp.energy.system_total());
           cell.set("energy_sdem_j", cmp.sdem.energy.system_total());
           SdemOnPolicy eager(/*procrastinate=*/false);
           const auto sim = simulate(trace, cfg, eager);
           cell.set("energy_eager_j",
                    evaluate_policy(sim, cfg, SleepDiscipline::kOptimal,
                                    "eager")
                        .energy.system_total());
         });

  Table t({"x (ms)", "SDEM-ON saving %", "eager saving %",
           "procrastination value (pp)"});
  Json rows = Json::array();
  for (std::size_t pi = 0; pi < kPoints; ++pi) {
    const int x = 100 + static_cast<int>(pi) * 100;
    const double e_mbkp = g.sum(pi, "energy_mbkp_j");
    const double s_sdem =
        100.0 * (e_mbkp - g.sum(pi, "energy_sdem_j")) / e_mbkp;
    const double s_eager =
        100.0 * (e_mbkp - g.sum(pi, "energy_eager_j")) / e_mbkp;
    t.add_row({std::to_string(x), Table::fmt(s_sdem, 2),
               Table::fmt(s_eager, 2), Table::fmt(s_sdem - s_eager, 2)});
    Json row = Json::object();
    row.set("x_ms", x);
    row.set("sdem_saving_pct", s_sdem);
    row.set("eager_saving_pct", s_eager);
    row.set("procrastination_value_pp", s_sdem - s_eager);
    row.set("per_seed", g.per_seed(pi));
    rows.push_back(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));

  Json params = Json::object();
  params.set("workload", "synthetic");
  params.set("tasks", kTasks);
  params.set("seeds", seeds);
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  return r;
}

// ------------------------------------------- Sleep-discipline ablation

// Ablation: never / always / break-even gap disciplines on the same MBKP
// schedule.
ExperimentResult run_ablation_sleep_discipline(const RunOptions& opt) {
  const auto cfg = paper_cfg();
  const int seeds = opt.seeds > 0 ? opt.seeds : 10;
  constexpr int kTasks = 120;
  constexpr int kPoints = 8;  // x = 100..800 ms

  ExperimentResult r;
  r.header_title = "Ablation — memory gap discipline on the MBKP schedule";
  r.header_what =
      "system energy (J, avg over seeds); x sweeps utilization; "
      "xi_m = 40 ms, alpha_m = 4 W";

  Grid g(opt.pool, kPoints, seeds,
         [&](std::size_t pi, std::uint64_t seed, Json& cell) {
           const int x = 100 + static_cast<int>(pi) * 100;
           SyntheticParams p;
           p.num_tasks = kTasks;
           p.max_interarrival = x / 1000.0;
           MbkpPolicy pol;
           const auto sim =
               simulate(make_synthetic(p, seed * 31 + x), cfg, pol);
           const auto energy = [&](SleepDiscipline d) {
             return evaluate_policy(sim, cfg, d, "m").energy.system_total();
           };
           cell.set("energy_never_j", energy(SleepDiscipline::kNever));
           cell.set("energy_always_j", energy(SleepDiscipline::kAlways));
           cell.set("energy_breakeven_j", energy(SleepDiscipline::kOptimal));
         });

  Table t({"x (ms)", "never (MBKP)", "always", "break-even (MBKPS)",
           "always vs never %"});
  Json rows = Json::array();
  for (std::size_t pi = 0; pi < kPoints; ++pi) {
    const int x = 100 + static_cast<int>(pi) * 100;
    const double e_never = g.sum(pi, "energy_never_j");
    const double e_always = g.sum(pi, "energy_always_j");
    const double e_opt = g.sum(pi, "energy_breakeven_j");
    t.add_row({std::to_string(x), Table::fmt(e_never / seeds, 4),
               Table::fmt(e_always / seeds, 4),
               Table::fmt(e_opt / seeds, 4),
               Table::fmt(100.0 * (e_always - e_never) / e_never, 2)});
    Json row = Json::object();
    row.set("x_ms", x);
    row.set("energy_never_j_avg", e_never / seeds);
    row.set("energy_always_j_avg", e_always / seeds);
    row.set("energy_breakeven_j_avg", e_opt / seeds);
    row.set("always_vs_never_pct", 100.0 * (e_always - e_never) / e_never);
    row.set("per_seed", g.per_seed(pi));
    rows.push_back(std::move(row));
  }
  r.solver_seconds_total = g.solver_seconds();
  r.tables.push_back(std::move(t));

  Json params = Json::object();
  params.set("workload", "synthetic");
  params.set("tasks", kTasks);
  params.set("seeds", seeds);
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  return r;
}

// --------------------------------------------- Governor x sleep ladder sweep

// Ladder-depth x utilization sweep on a bursty trace (15 ms intra-burst
// spacing, so executions inside a burst scatter and leave runs of
// sub-break-even gaps between long inter-burst quiet gaps — the classic
// DPM prediction regime). The memory disciplines — never, sleep-when-idle
// (deepest state in every gap), the predictive governor, and the
// clairvoyant per-gap oracle — all account the same memory-oblivious MBKP
// schedule, so their deltas isolate the online sleep decision; the
// sdem-oracle column accounts the sleep-aligned SDEM-ON schedule under
// the oracle discipline and shows what co-designed scheduling adds on
// top. The ladder is
// SleepLadder::geometric, whose deepest rung is exactly the paper's
// single state, so the depth-1 rows double as a configuration check:
// oracle == the empty-ladder (SleepLadder::single) kOptimal accounting
// bit for bit.
// Simulations are shared across depths (the ladder only affects
// accounting, not the solver).
ExperimentResult run_governor_ladder(const RunOptions& opt) {
  const auto base = paper_cfg();
  const int seeds = opt.seeds > 0 ? opt.seeds : 8;
  constexpr int kTasks = 120;
  constexpr int kUtil = 8;  // x = 100..800 ms
  constexpr int kDepths[] = {1, 2, 4};
  constexpr int kNumDepths = 3;

  ExperimentResult r;
  r.header_title = "Governor — sleep-ladder depth x utilization (SDEM-ON)";
  r.header_what =
      "memory energy (J, avg over seeds) under four gap disciplines on a "
      "bursty arrival trace (tiny intra-burst gaps, long inter-burst gaps); "
      "x = inter-burst spacing; geometric ladder, deepest rung = paper "
      "state (alpha_m=4W, xi_m=40ms); governor = EWMA+window predictor, "
      "deepest-fit rule";

  struct Cell {
    double e_never[kNumDepths] = {};
    double e_always[kNumDepths] = {};
    double e_oracle[kNumDepths] = {};
    double e_governor[kNumDepths] = {};
    double e_sdem[kNumDepths] = {};
    double mispredicts[kNumDepths] = {};
    double aborts[kNumDepths] = {};
    /// Per-rung governor accounting (cycles/aborts/mispredicts by state).
    std::vector<SleepStateBreakdown> states[kNumDepths];
    double sleep_legacy = 0.0;  ///< empty-ladder kOptimal (single state)
    double solver_seconds = 0.0;
  };
  std::vector<Cell> cells(static_cast<std::size_t>(kUtil) *
                          static_cast<std::size_t>(seeds));
  parallel_for_grid(
      opt.pool, kUtil, seeds,
      [&](std::size_t pi, std::uint64_t seed, std::size_t slot) {
        const int x = 100 + static_cast<int>(pi) * 100;
        const auto t0 = std::chrono::steady_clock::now();
        Cell& c = cells[slot];
        BurstyParams p;
        p.num_tasks = kTasks;
        p.burst_gap = x / 1000.0;
        p.intra_spacing = 0.015;
        const auto trace = make_bursty(p, seed * 31 + x);
        MbkpPolicy mbkp;
        const auto sim = simulate(trace, base, mbkp);
        SdemOnPolicy sdem_pol;
        const auto sim_sdem = simulate(trace, base, sdem_pol);
        c.sleep_legacy =
            evaluate_policy(sim, base, SleepDiscipline::kOptimal, "legacy")
                .energy.memory_total();
        for (int di = 0; di < kNumDepths; ++di) {
          SystemConfig cfg = base;
          cfg.memory.ladder = SleepLadder::geometric(
              cfg.memory.alpha_m, cfg.memory.xi_m, kDepths[di]);
          c.e_never[di] =
              evaluate_policy(sim, cfg, SleepDiscipline::kNever, "n")
                  .energy.memory_total();
          c.e_always[di] =
              evaluate_policy(sim, cfg, SleepDiscipline::kAlways, "a")
                  .energy.memory_total();
          c.e_oracle[di] =
              evaluate_policy(sim, cfg, SleepDiscipline::kOptimal, "o")
                  .energy.memory_total();
          IdleGovernor gov;
          const auto ev = evaluate_policy(
              sim, cfg, SleepDiscipline::kGovernor, "g", &gov);
          c.e_governor[di] = ev.energy.memory_total();
          c.mispredicts[di] = ev.energy.governor_mispredicts;
          c.aborts[di] = ev.energy.governor_aborts;
          c.states[di] = ev.energy.memory_states;
          c.e_sdem[di] =
              evaluate_policy(sim_sdem, cfg, SleepDiscipline::kOptimal, "s")
                  .energy.memory_total();
        }
        c.solver_seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
      });

  Table t({"depth", "x (ms)", "never", "sleep-when-idle", "governor",
           "oracle", "sdem-oracle", "gov vs always %", "gov vs oracle %"});
  Json rows = Json::array();
  for (int di = 0; di < kNumDepths; ++di) {
    for (int pi = 0; pi < kUtil; ++pi) {
      const int x = 100 + pi * 100;
      double e_never = 0, e_always = 0, e_oracle = 0, e_governor = 0;
      double e_sdem = 0, mispredicts = 0, aborts = 0, legacy = 0;
      Json per_seed = Json::array();
      for (int s = 0; s < seeds; ++s) {
        const Cell& c = cells[static_cast<std::size_t>(pi) *
                                  static_cast<std::size_t>(seeds) +
                              static_cast<std::size_t>(s)];
        e_never += c.e_never[di];
        e_always += c.e_always[di];
        e_oracle += c.e_oracle[di];
        e_governor += c.e_governor[di];
        e_sdem += c.e_sdem[di];
        mispredicts += c.mispredicts[di];
        aborts += c.aborts[di];
        legacy += c.sleep_legacy;
        if (di == 0) r.solver_seconds_total += c.solver_seconds;
        Json cell = Json::object();
        cell.set("seed", static_cast<std::uint64_t>(s + 1));
        cell.set("energy_never_j", c.e_never[di]);
        cell.set("energy_always_j", c.e_always[di]);
        cell.set("energy_governor_j", c.e_governor[di]);
        cell.set("energy_oracle_j", c.e_oracle[di]);
        cell.set("energy_sdem_oracle_j", c.e_sdem[di]);
        cell.set("mispredicts", c.mispredicts[di]);
        cell.set("aborts", c.aborts[di]);
        // Per-rung decision counts under the live governor: how often each
        // sleep state was chosen (decisions = cycles + aborts) and how the
        // choices worked out.
        Json rungs = Json::array();
        for (std::size_t k = 0; k < c.states[di].size(); ++k) {
          const SleepStateBreakdown& st = c.states[di][k];
          Json rj = Json::object();
          rj.set("state", static_cast<std::uint64_t>(k));
          rj.set("decisions", st.cycles + st.aborts);
          rj.set("cycles", st.cycles);
          rj.set("aborts", st.aborts);
          rj.set("mispredicts", st.mispredicts);
          rungs.push_back(std::move(rj));
        }
        cell.set("governor_rungs", std::move(rungs));
        if (kDepths[di] == 1) {
          // Frozen-oracle check value: must equal energy_oracle_j exactly.
          cell.set("energy_legacy_single_j", c.sleep_legacy);
        }
        per_seed.push_back(std::move(cell));
      }
      t.add_row({std::to_string(kDepths[di]), std::to_string(x),
                 Table::fmt(e_never / seeds, 4),
                 Table::fmt(e_always / seeds, 4),
                 Table::fmt(e_governor / seeds, 4),
                 Table::fmt(e_oracle / seeds, 4),
                 Table::fmt(e_sdem / seeds, 4),
                 Table::fmt(100.0 * (e_governor - e_always) / e_always, 2),
                 Table::fmt(100.0 * (e_governor - e_oracle) / e_oracle, 2)});
      Json row = Json::object();
      row.set("depth", kDepths[di]);
      row.set("x_ms", x);
      row.set("energy_never_j_avg", e_never / seeds);
      row.set("energy_always_j_avg", e_always / seeds);
      row.set("energy_governor_j_avg", e_governor / seeds);
      row.set("energy_oracle_j_avg", e_oracle / seeds);
      row.set("energy_sdem_oracle_j_avg", e_sdem / seeds);
      row.set("governor_vs_always_pct",
              100.0 * (e_governor - e_always) / e_always);
      row.set("governor_vs_oracle_pct",
              100.0 * (e_governor - e_oracle) / e_oracle);
      row.set("mispredicts_avg", mispredicts / seeds);
      row.set("aborts_avg", aborts / seeds);
      if (kDepths[di] == 1) {
        row.set("energy_legacy_single_j_avg", legacy / seeds);
      }
      row.set("per_seed", std::move(per_seed));
      rows.push_back(std::move(row));
    }
  }
  r.tables.push_back(std::move(t));

  Json params = Json::object();
  params.set("workload", "bursty");
  params.set("tasks", kTasks);
  params.set("seeds", seeds);
  Json depths = Json::array();
  for (int d : kDepths) depths.push_back(Json(d));
  params.set("ladder_depths", std::move(depths));
  params.set("governor", "ewma0.25+window8, deepest-fit");
  r.data = Json::object();
  r.data.set("params", std::move(params));
  r.data.set("rows", std::move(rows));
  return r;
}

}  // namespace

void register_all_experiments(std::vector<Experiment>& out) {
  out.push_back({"fig6a", "Fig. 6a",
                 "memory static-energy saving vs U (DSPstone)", 10,
                 [](const RunOptions& o) { return run_fig6(o, true); }});
  out.push_back({"fig6b", "Fig. 6b",
                 "system-wide energy saving vs U (DSPstone)", 10,
                 [](const RunOptions& o) { return run_fig6(o, false); }});
  out.push_back({"fig7a", "Fig. 7a",
                 "saving improvement over alpha_m x x (synthetic)", 10,
                 [](const RunOptions& o) { return run_fig7(o, true); }});
  out.push_back({"fig7b", "Fig. 7b",
                 "saving improvement over xi_m x x (synthetic)", 10,
                 [](const RunOptions& o) { return run_fig7(o, false); }});
  out.push_back({"table4", "Table 4",
                 "parameter grid and the default operating point", 10,
                 [](const RunOptions& o) { return run_table4(o); }});
  out.push_back({"table1", "Table 1",
                 "runtime scaling of the SDEM schemes", 1,
                 [](const RunOptions& o) { return run_table1(o); }});
  out.push_back({"bounded_partition", "Theorem 1",
                 "bounded cores reduce to PARTITION: exact vs LPT", 1,
                 [](const RunOptions& o) { return run_bounded_partition(o); }});
  out.push_back({"ablation_blocks", "§5 ablation",
                 "block DP vs degenerate partitions over task spread", 8,
                 [](const RunOptions& o) { return run_ablation_blocks(o); }});
  out.push_back({"online_vs_offline", "§6 ratio",
                 "empirical competitive ratio vs the agreeable DP", 12,
                 [](const RunOptions& o) { return run_online_vs_offline(o); }});
  out.push_back({"policy_poles", "title question",
                 "race / stretch / critical / MBKPS / SDEM-ON across x", 10,
                 [](const RunOptions& o) { return run_policy_poles(o); }});
  out.push_back({"islands", "future work",
                 "voltage-island granularity vs per-core rails", 20,
                 [](const RunOptions& o) { return run_islands(o); }});
  out.push_back({"contention", "§3 assumption",
                 "controller contention under SDEM-ON's alignment", 10,
                 [](const RunOptions& o) { return run_contention(o); }});
  out.push_back({"dram_abstraction", "§3 substrate",
                 "DRAM power-state machine vs the (alpha_m, xi_m) model", 10,
                 [](const RunOptions& o) { return run_dram_abstraction(o); }});
  out.push_back({"rank_granularity", "future work",
                 "rank-granular power-down vs monolithic memory", 10,
                 [](const RunOptions& o) { return run_rank_granularity(o); }});
  out.push_back({"slack_reclamation", "§2 extension",
                 "WCET pessimism: replanning on early completions", 10,
                 [](const RunOptions& o) { return run_slack_reclamation(o); }});
  out.push_back({"access_sensitivity", "§3 sensitivity",
                 "memory energy vs per-task access fraction", 10,
                 [](const RunOptions& o) {
                   return run_access_sensitivity(o);
                 }});
  out.push_back({"ablation_discrete", "§4.2 ablation",
                 "discrete DVFS ladders vs continuous speeds", 20,
                 [](const RunOptions& o) { return run_ablation_discrete(o); }});
  out.push_back({"ablation_procrastination", "§6 step 5 ablation",
                 "value of alignment sleep vs speed selection alone", 10,
                 [](const RunOptions& o) {
                   return run_ablation_procrastination(o);
                 }});
  out.push_back({"ablation_sleep_discipline", "Table 3 ablation",
                 "never / always / break-even gap disciplines on MBKP", 10,
                 [](const RunOptions& o) {
                   return run_ablation_sleep_discipline(o);
                 }});
  out.push_back({"governor_ladder", "ROADMAP ladder",
                 "predictive idle governor vs sleep-when-idle vs clairvoyant "
                 "across ladder depth x utilization", 8,
                 [](const RunOptions& o) { return run_governor_ladder(o); }});
}

}  // namespace sdem::bench
