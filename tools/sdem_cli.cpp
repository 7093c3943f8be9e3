// sdem_cli — command-line front end for the library.
//
//   sdem_cli gen synthetic  <n> <x_ms> <seed>         task CSV to stdout
//   sdem_cli gen dspstone   <n> <U> <seed>
//   sdem_cli gen common     <n> <seed>
//   sdem_cli solve <scheme>                < tasks.csv   offline solve:
//       scheme: cr-alpha0 | cr-alpha | cr-transition | agreeable
//       prints energy, sleep time, a Gantt chart and the schedule CSV
//   sdem_cli simulate <policy>             < tasks.csv   online run:
//       policy: sdem-on | sdem-on-eager | mbkp | race | stretch | critical
//   sdem_cli svg [policy]                  < tasks.csv   SVG Gantt chart
//       of the online run (default sdem-on)
//   sdem_cli compare                       < tasks.csv   SDEM-ON vs MBKP(S)
//   sdem_cli selftest                                    end-to-end smoke
//
// All runs use the paper-default system configuration (8 A57-like cores,
// 4 W DRAM, 40 ms break-even).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/agreeable.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "sim/governor.hpp"
#include "core/common_release_alpha.hpp"
#include "core/common_release_alpha0.hpp"
#include "core/transition.hpp"
#include "sched/energy.hpp"
#include "sched/svg.hpp"
#include "sched/trace_io.hpp"
#include "sched/validate.hpp"
#include "service/service.hpp"
#include "sim/metrics.hpp"
#include "workload/dspstone.hpp"
#include "workload/generator.hpp"

namespace {

using namespace sdem;

SystemConfig default_cfg() { return SystemConfig::paper_default(); }

std::string read_stdin() {
  std::ostringstream os;
  os << std::cin.rdbuf();
  return os.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: sdem_cli gen {synthetic|dspstone|common} ... |\n"
               "       sdem_cli solve {cr-alpha0|cr-alpha|cr-transition|"
               "agreeable} < tasks.csv |\n"
               "       sdem_cli {simulate|svg} {sdem-on|sdem-on-eager|mbkp|"
               "race|stretch|critical} < tasks.csv |\n"
               "       sdem_cli compare < tasks.csv | sdem_cli selftest\n"
               "  --trace PATH   (any command) record a chrome://tracing "
               "JSON\n"
               "  --power-trace PATH  (simulate) export the governor's\n"
               "                 power-state timeline — per-gap decisions,\n"
               "                 memory sleep-state residency and CPU speed\n"
               "                 counter tracks — as chrome://tracing JSON\n");
  return 2;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string kind = argv[0];
  if (kind == "synthetic" && argc >= 4) {
    SyntheticParams p;
    p.num_tasks = std::atoi(argv[1]);
    p.max_interarrival = std::atof(argv[2]) / 1000.0;
    std::fputs(task_set_to_csv(make_synthetic(p, std::atoll(argv[3]))).c_str(),
               stdout);
    return 0;
  }
  if (kind == "dspstone" && argc >= 4) {
    DspstoneParams p;
    p.num_tasks = std::atoi(argv[1]);
    p.utilization_u = std::atof(argv[2]);
    std::fputs(task_set_to_csv(make_dspstone(p, std::atoll(argv[3]))).c_str(),
               stdout);
    return 0;
  }
  if (kind == "common" && argc >= 3) {
    std::fputs(task_set_to_csv(
                   make_common_release(std::atoi(argv[1]), 0.0,
                                       std::atoll(argv[2])))
                   .c_str(),
               stdout);
    return 0;
  }
  return usage();
}

int report_offline(const OfflineResult& res, const TaskSet& tasks,
                   const SystemConfig& cfg) {
  if (!res.feasible) {
    std::fprintf(stderr, "infeasible task set\n");
    return 1;
  }
  const auto v = validate_schedule(res.schedule, tasks, cfg);
  std::printf("energy        %.6f J\n", res.energy);
  std::printf("memory sleep  %.3f ms\n", res.sleep_time * 1e3);
  std::printf("feasible      %s\n", v.ok ? "yes" : v.error.c_str());
  std::printf("\n%s\n", render_gantt(res.schedule).c_str());
  std::fputs(schedule_to_csv(res.schedule).c_str(), stdout);
  return v.ok ? 0 : 1;
}

int cmd_solve(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string scheme = argv[0];
  const TaskSet tasks = task_set_from_csv(read_stdin());
  auto cfg = default_cfg();
  cfg.num_cores = 0;
  cfg.core.s_min = 0.0;  // offline theory: continuous below s_up
  if (scheme == "cr-alpha0") {
    auto c = cfg;
    c.core.alpha = 0.0;
    c.memory.xi_m = 0.0;
    return report_offline(solve_common_release_alpha0(tasks, c), tasks, c);
  }
  if (scheme == "cr-alpha") {
    auto c = cfg;
    c.memory.xi_m = 0.0;
    return report_offline(solve_common_release_alpha(tasks, c), tasks, c);
  }
  if (scheme == "cr-transition") {
    return report_offline(solve_common_release_transition(tasks, cfg), tasks,
                          cfg);
  }
  if (scheme == "agreeable") {
    return report_offline(solve_agreeable(tasks, cfg), tasks, cfg);
  }
  return usage();
}

int cmd_simulate(int argc, char** argv) {
  if (argc < 1) return usage();
  const std::string which = argv[0];
  const std::unique_ptr<OnlinePolicy> pol = service::make_policy(which);
  if (pol == nullptr) return usage();
  const TaskSet tasks = task_set_from_csv(read_stdin());
  const auto cfg = default_cfg();

  const SimResult sim = simulate(tasks, cfg, *pol);
  const auto ev = evaluate_policy(
      sim, cfg,
      which == "mbkp" ? SleepDiscipline::kNever : SleepDiscipline::kOptimal,
      pol->name());
  if (obs::timeline::enabled()) {
    // --power-trace: an extra, output-silent accounting pass under the
    // live idle governor journals every gap decision (predicted vs actual
    // idle, chosen rung, outcome). The report printed below comes from
    // `ev` above and stays byte-identical with tracing on or off.
    const std::string label = pol->name();
    IdleGovernor gov;
    EnergyOptions eopt;
    eopt.memory_gaps = SleepDiscipline::kGovernor;
    eopt.horizon_lo = sim.horizon_lo;
    eopt.horizon_hi = sim.horizon_hi;
    eopt.governor = &gov;
    eopt.timeline_island = 0;
    eopt.timeline_label = label.c_str();
    (void)compute_energy(sim.schedule, cfg, eopt);
    // CPU speed counter tracks from the executed schedule: one track per
    // core, stepping to the segment's speed at start and 0 at end.
    std::vector<Segment> segs = sim.schedule.segments();
    std::sort(segs.begin(), segs.end(), [](const Segment& a, const Segment& b) {
      if (a.core != b.core) return a.core < b.core;
      if (a.start != b.start) return a.start < b.start;
      return a.end < b.end;
    });
    for (const Segment& s : segs) {
      const std::string track = "cpu/core" + std::to_string(s.core) + "/speed";
      obs::timeline::counter_sample(track, s.start, s.speed);
      obs::timeline::counter_sample(track, s.end, 0.0);
    }
  }
  std::printf("policy        %s\n", ev.policy.c_str());
  std::printf("system energy %.6f J\n", ev.energy.system_total());
  std::printf("memory energy %.6f J\n", ev.energy.memory_total());
  std::printf("memory sleep  %.3f s\n", ev.memory_sleep_time);
  std::printf("misses        %d\n", ev.deadline_misses);
  std::printf("\n%s\n", render_gantt(sim.schedule).c_str());
  std::fputs(schedule_to_csv(sim.schedule).c_str(), stdout);
  return ev.unfinished == 0 ? 0 : 1;
}

int cmd_svg(int argc, char** argv) {
  // sdem_cli svg [policy] < tasks.csv > schedule.svg
  const std::unique_ptr<OnlinePolicy> pol =
      service::make_policy(argc >= 1 ? argv[0] : "sdem-on");
  if (pol == nullptr) return usage();
  const TaskSet tasks = task_set_from_csv(read_stdin());
  const auto cfg = default_cfg();
  const SimResult sim = simulate(tasks, cfg, *pol);
  SvgOptions opts;
  opts.title = pol->name() + " schedule, " + std::to_string(tasks.size()) +
               " tasks";
  std::fputs(render_svg(sim.schedule, opts).c_str(), stdout);
  return 0;
}

int cmd_compare() {
  const TaskSet tasks = task_set_from_csv(read_stdin());
  const auto cmp = run_comparison(tasks, default_cfg());
  std::printf("%-10s %14s %14s %10s %8s\n", "policy", "system (J)",
              "memory (J)", "sleep (s)", "misses");
  for (const auto* ev : {&cmp.mbkp, &cmp.mbkps, &cmp.sdem}) {
    std::printf("%-10s %14.6f %14.6f %10.3f %8d\n", ev->policy.c_str(),
                ev->energy.system_total(), ev->energy.memory_total(),
                ev->memory_sleep_time, ev->deadline_misses);
  }
  std::printf("saving vs MBKP: MBKPS %.2f%%  SDEM-ON %.2f%%\n",
              100.0 * cmp.system_saving_mbkps(),
              100.0 * cmp.system_saving_sdem());
  return 0;
}

int cmd_selftest() {
  // gen -> solve -> simulate -> compare, all in-process.
  SyntheticParams p;
  p.num_tasks = 40;
  p.max_interarrival = 0.300;
  const TaskSet tasks = make_synthetic(p, 7);
  const auto csv = task_set_to_csv(tasks);
  const TaskSet back = task_set_from_csv(csv);
  if (back.size() != tasks.size()) return 1;

  auto cfg = default_cfg();
  cfg.core.s_min = 0.0;
  cfg.memory.xi_m = 0.0;
  const TaskSet cr = make_common_release(6, 0.0, 3);
  const auto off = solve_common_release_alpha(cr, cfg);
  if (!off.feasible) return 1;
  if (!validate_schedule(off.schedule, cr, cfg).ok) return 1;

  const auto cmp = run_comparison(tasks, default_cfg());
  if (cmp.sdem.deadline_misses != 0) return 1;
  if (cmp.sdem.energy.system_total() >
      cmp.mbkp.energy.system_total() * 1.001) {
    return 1;
  }
  std::printf("selftest ok\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Pre-scan for the global --trace / --power-trace flags (valid on any
  // command) so the per-command argv parsing below stays untouched.
  std::string trace_path;
  std::string power_trace_path;
  std::vector<char*> args;
  args.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--power-trace") == 0 && i + 1 < argc) {
      power_trace_path = argv[++i];
      continue;
    }
    args.push_back(argv[i]);
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  if (!trace_path.empty()) sdem::obs::trace::start();
  if (!power_trace_path.empty()) sdem::obs::timeline::start();

  int rc = 2;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "gen") rc = cmd_gen(argc - 2, argv + 2);
    else if (cmd == "solve") rc = cmd_solve(argc - 2, argv + 2);
    else if (cmd == "simulate") rc = cmd_simulate(argc - 2, argv + 2);
    else if (cmd == "svg") rc = cmd_svg(argc - 2, argv + 2);
    else if (cmd == "compare") rc = cmd_compare();
    else if (cmd == "selftest") rc = cmd_selftest();
    else rc = usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  if (!trace_path.empty()) {
    if (!sdem::obs::trace::write_file(trace_path)) {
      std::fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace -> %s (open in chrome://tracing)\n",
                 trace_path.c_str());
  }
  if (!power_trace_path.empty()) {
    if (!sdem::obs::timeline::write_file(power_trace_path)) {
      std::fprintf(stderr, "cannot write power trace %s\n",
                   power_trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "power trace -> %s (open in chrome://tracing)\n",
                 power_trace_path.c_str());
  }
  return rc;
}
