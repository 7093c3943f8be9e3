// Named-experiment registry for the paper's evaluation (§8).
//
// Each figure/table sweep registers here as an Experiment: a name
// ("fig6a"), the paper item it reproduces, and a run() callback that
// executes the sweep — in parallel across cells when RunOptions.pool is
// set — and returns both the human-readable tables and a structured JSON
// payload with full-precision per-seed metrics.
//
// tools/sdem_bench_runner.cpp is the one front end: it runs any subset
// (--filter, --seeds, --jobs) and writes BENCH_<name>.json (schema in
// docs/benchmarks.md).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "support/json.hpp"

namespace sdem::bench {

struct RunOptions {
  int seeds = 0;               ///< 0 → the experiment's paper default
  ThreadPool* pool = nullptr;  ///< null → serial reference execution
};

struct ExperimentResult {
  std::string header_title;  ///< first print_header line
  std::string header_what;   ///< second print_header line
  std::vector<Table> tables;
  std::vector<std::string> footers;  ///< lines printed after the tables
  Json data;                         ///< experiment-specific JSON payload
  /// Summed wall time of the sweep's cells, trace generation included
  /// (Grid::solver_seconds); the timing experiments sum their runs.
  double solver_seconds_total = 0.0;
};

struct Experiment {
  std::string name;         ///< registry key, e.g. "fig6a"
  std::string paper_item;   ///< "Fig. 6a", "Table 4", ...
  std::string description;  ///< one line, shown by --list
  int default_seeds = 10;
  std::function<ExperimentResult(const RunOptions&)> run;
};

/// All registered experiments, in registration (paper) order.
const std::vector<Experiment>& all_experiments();

/// Exact-name lookup; null when absent.
const Experiment* find_experiment(const std::string& name);

/// Comma-separated case-sensitive substring filter against the names;
/// empty or "all" matches everything. Preserves registration order. No
/// name is a substring of another, so each full name selects exactly its
/// own experiment.
std::vector<const Experiment*> match_experiments(const std::string& filter);

/// Print a result as the bench text format: header, tables (text + CSV),
/// footers.
void print_result(const ExperimentResult& r);

/// printf-style formatting into a std::string (for footers).
std::string strf(const char* fmt, ...);

}  // namespace sdem::bench
