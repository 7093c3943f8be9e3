// sdem_bench_runner — one command for the paper's evaluation (§8).
//
// The one entry point to the evaluation: runs any subset of the registered
// experiments (bench/bench_registry.hpp) with the seed sweeps spread across
// a thread pool, prints each experiment's tables, and writes one
// BENCH_<name>.json per experiment with full-precision per-seed metrics,
// per-seed solver timings, and the experiment wall-clock (--md alone
// prints markdown and writes none).
// docs/benchmarks.md documents the JSON schema and the regeneration
// recipes.
//
//   sdem_bench_runner --list
//   sdem_bench_runner                        # full sweep, all defaults
//   sdem_bench_runner --filter fig6a --seeds 8 --jobs 8
//   sdem_bench_runner --filter fig6a,fig6b --md   # markdown for EXPERIMENTS.md
//   sdem_bench_runner --filter table4 --out -     # JSON to stdout
//
// Determinism contract: per-seed results are bit-identical whatever --jobs
// is (seeds compute into private slots; folds happen in seed order), so
// two runs differ only in the recorded timings. `--out` strips timings
// with --stable, making the whole file byte-reproducible.
#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_registry.hpp"
#include "int_flag.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace sdem;
using namespace sdem::bench;
using sdem::tools::int_flag;

constexpr int kSchemaVersion = 1;

int usage(int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: sdem_bench_runner [options]\n"
      "  --list            list registered experiments and exit\n"
      "  --filter NAMES    comma-separated name substrings (default: all)\n"
      "  --seeds N         seeds per operating point (default: per-experiment,"
      " 10)\n"
      "  --jobs N          worker threads, 1..1024; 1 = serial (default:\n"
      "                    hardware)\n"
      "  --out PATH        JSON path for a single-experiment run; '-' for\n"
      "                    stdout; default BENCH_<name>.json per experiment\n"
      "                    (none with --md)\n"
      "  --stable          omit timings, job count, and observability\n"
      "                    sections from the JSON (byte-reproducible across\n"
      "                    runs and --jobs), and skip collecting them unless\n"
      "                    --timer-rollup or --trace reads them\n"
      "  --timer-rollup    after each experiment, print the scoped-timer\n"
      "                    hierarchy as an indented inclusive/exclusive table\n"
      "  --trace PATH      record a chrome://tracing JSON of the whole run\n"
      "                    (timer spans + the governor power-state timeline)\n"
      "  --md              print tables as markdown (EXPERIMENTS.md format)\n"
      "  --quiet           suppress tables; JSON and summary only\n"
      "  --help            this message\n");
  return code;
}

/// Per-experiment JSON document (docs/benchmarks.md, schema_version 1).
/// Moves r.data into the document.
Json make_document(const Experiment& e, ExperimentResult& r, int seeds,
                   int jobs, double wall_seconds, bool stable) {
  Json doc = Json::object();
  doc.set("schema_version", kSchemaVersion);
  doc.set("generator", "sdem_bench_runner");
  doc.set("experiment", e.name);
  doc.set("paper_item", e.paper_item);
  doc.set("title", r.header_title);
  doc.set("description", e.description);
  doc.set("seeds", seeds);
  // --stable keeps only fields that cannot differ between reruns of the
  // same sweep: the job count and the timings vary, the data must not.
  if (!stable) {
    doc.set("jobs", jobs);
    doc.set("wall_seconds", wall_seconds);
    doc.set("solver_seconds_total", r.solver_seconds_total);
  }
  // --stable also drops the per-seed "counters" attribution: the values
  // are deterministic, but the key is additive schema and the stable bytes
  // must match pre-attribution goldens.
  if (stable) {
    r.data.erase_key("solver_seconds");
    r.data.erase_key("counters");
  }
  doc.set("data", std::move(r.data));
  // Observability sections (docs/observability.md): "counters" holds the
  // deterministic domain (identical values at any --jobs), "runtime" the
  // scheduling/clock-dependent one. Strictly additive, and omitted under
  // --stable so golden byte comparisons predate-obs stay valid.
  if (!stable) {
    const sdem::obs::Snapshot snap = sdem::obs::Registry::instance().snapshot();
    doc.set("counters", snap.counters_json());
    doc.set("runtime", snap.runtime_json());
  }
  return doc;
}

/// --timer-rollup: the scoped-timer hierarchy of one experiment's run,
/// rebuilt from the parent→child edge cells every closing ScopedTimer
/// records (obs::kTimerEdgeSep). Parenthood is per-thread: a pool worker's
/// timers nest under "thread_pool/task", not under the experiment scope on
/// the main thread. A timer reachable from several parents is placed under
/// the parent that accounts for most of its time; count/incl/excl columns
/// are whole-run totals (incl = the timer's own cell, excl = incl minus
/// every child edge's time, i.e. time spent outside any nested timer).
void print_timer_rollup(const obs::Snapshot& snap) {
  std::map<std::string, obs::TimerCell> flat;
  // parent -> (child, edge cell), and child -> dominant parent.
  std::map<std::string, std::vector<std::pair<std::string, obs::TimerCell>>>
      kids;
  std::map<std::string, std::pair<std::string, std::uint64_t>> parent_of;
  for (const auto& [name, cell] : snap.timers) {
    // Registry::reset zeroes cells but keeps them registered: a cell an
    // earlier experiment left behind reads count 0 and is not part of this
    // run.
    if (cell.count == 0) continue;
    const std::size_t sep = name.find(obs::kTimerEdgeSep);
    if (sep == std::string::npos) {
      flat[name] = cell;
      continue;
    }
    const std::string parent = name.substr(0, sep);
    const std::string child = name.substr(sep + 1);
    kids[parent].emplace_back(child, cell);
    auto it = parent_of.find(child);
    if (it == parent_of.end() || cell.total_ns > it->second.second)
      parent_of[child] = {parent, cell.total_ns};
  }
  if (flat.empty()) {
    std::printf("timer rollup: no scoped timers recorded\n\n");
    return;
  }

  std::printf("timer rollup (whole-run totals; excl = incl - nested):\n");
  std::printf("  %-44s %10s %12s %12s\n", "timer", "count", "incl ms",
              "excl ms");
  const std::function<void(const std::string&, int)> emit =
      [&](const std::string& name, int depth) {
        const obs::TimerCell& c = flat[name];
        std::uint64_t nested_ns = 0;
        std::vector<std::pair<std::uint64_t, std::string>> here;
        if (const auto ki = kids.find(name); ki != kids.end()) {
          for (const auto& [child, edge] : ki->second) {
            nested_ns += edge.total_ns;
            // Recurse only where this node is the dominant parent, so the
            // printout stays a tree even when the timer graph is not.
            if (parent_of[child].first == name)
              here.emplace_back(edge.total_ns, child);
          }
        }
        const double incl = static_cast<double>(c.total_ns) * 1e-6;
        const double excl =
            static_cast<double>(c.total_ns - std::min(c.total_ns, nested_ns)) *
            1e-6;
        std::printf("  %*s%-*s %10llu %12.3f %12.3f\n", 2 * depth, "",
                    44 - 2 * depth, name.c_str(),
                    static_cast<unsigned long long>(c.count), incl, excl);
        std::sort(here.begin(), here.end(),
                  [](const auto& a, const auto& b) { return a.first > b.first; });
        for (const auto& [ns, child] : here) emit(child, depth + 1);
      };
  // Roots (timers that are nobody's child), busiest first.
  std::vector<std::pair<std::uint64_t, std::string>> roots;
  for (const auto& [name, cell] : flat) {
    if (parent_of.find(name) == parent_of.end())
      roots.emplace_back(cell.total_ns, name);
  }
  std::sort(roots.begin(), roots.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [ns, name] : roots) emit(name, 0);
  std::printf("\n");
}

void print_markdown(const ExperimentResult& r) {
  std::printf("## %s\n\n%s\n\n", r.header_title.c_str(),
              r.header_what.c_str());
  // Table::to_text is already GitHub markdown (header, separator, rows).
  for (const Table& t : r.tables) std::printf("%s\n", t.to_text().c_str());
  for (const std::string& f : r.footers) std::printf("%s\n", f.c_str());
  if (!r.footers.empty()) std::printf("\n");
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string filter;
  std::string out_path;
  std::string trace_path;
  int seeds = 0;
  int jobs = ThreadPool::hardware_jobs();
  bool list = false, md = false, quiet = false, stable = false;
  bool timer_rollup = false;
  const auto bad = [] { return usage(2); };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(usage(2));
      }
      return argv[++i];
    };
    if (arg == "--list") {
      list = true;
    } else if (arg == "--filter") {
      filter = value("--filter");
    } else if (arg == "--seeds") {
      seeds = int_flag("--seeds", value("--seeds"), 1, INT_MAX, bad);
    } else if (arg == "--jobs") {
      jobs = int_flag("--jobs", value("--jobs"), 1, 1024, bad);
    } else if (arg == "--timer-rollup") {
      timer_rollup = true;
    } else if (arg == "--out") {
      out_path = value("--out");
    } else if (arg == "--trace") {
      trace_path = value("--trace");
    } else if (arg == "--stable") {
      stable = true;
    } else if (arg == "--md") {
      md = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(2);
    }
  }

  const std::vector<const Experiment*> selected = match_experiments(filter);
  if (selected.empty()) {
    std::fprintf(stderr, "no experiment matches --filter '%s' (try --list)\n",
                 filter.c_str());
    return 1;
  }
  if (list) {
    Table t({"name", "paper item", "seeds", "description"});
    for (const Experiment* e : selected)
      t.add_row({e->name, e->paper_item, std::to_string(e->default_seeds),
                 e->description});
    std::printf("%s", t.to_text().c_str());
    return 0;
  }
  if (!out_path.empty() && selected.size() != 1) {
    std::fprintf(stderr,
                 "--out needs exactly one experiment selected, got %zu\n",
                 selected.size());
    return 2;
  }

  // Record only what the run reports: a non-stable document's counters and
  // runtime sections, the rollup, or the trace. Everything else (a --stable
  // sweep, --md without --out) runs with the instrumentation sites idle;
  // the numerics are the same either way.
  const bool writes_document = !(md && out_path.empty());
  obs::set_recording((writes_document && !stable) || timer_rollup ||
                     !trace_path.empty());

  // jobs == 1 keeps the serial reference path (no pool) — the execution the
  // parallel runs must match bit-for-bit.
  std::unique_ptr<ThreadPool> pool;
  if (jobs > 1) pool = std::make_unique<ThreadPool>(jobs);

  // Timer spans and the governor's power-state timeline (obs/timeline.hpp)
  // share one trace file: timeline events merge into trace::to_json, so a
  // --trace of governor_ladder shows per-gap decisions alongside timers.
  if (!trace_path.empty()) {
    obs::trace::start();
    obs::timeline::start();
  }

  double total_wall = 0.0;
  // The serial tail after each experiment, on the main thread while the
  // pool idles: building the document, dumping it, writing it out.
  double document_s = 0.0, dump_s = 0.0, write_s = 0.0;
  for (const Experiment* e : selected) {
    RunOptions opt;
    opt.seeds = seeds;
    opt.pool = pool.get();
    // Fresh counters per experiment: the "counters" section of
    // BENCH_<name>.json covers exactly this experiment's work.
    obs::Registry::instance().reset();
    const auto t0 = std::chrono::steady_clock::now();
    // The experiment timer closes before the snapshot below so the rollup
    // sees its final count (an open timer's cell still reads zero).
    ExperimentResult r = [&] {
      const obs::ScopedTimer exp_timer(e->name.c_str());
      return e->run(opt);
    }();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    total_wall += wall;

    if (!quiet) {
      if (md)
        print_markdown(r);
      else
        print_result(r);
    }
    if (timer_rollup)
      print_timer_rollup(obs::Registry::instance().snapshot());
    // --md without --out writes no document: run from the repository root,
    // the default path would overwrite a committed artifact.
    if (!writes_document) continue;

    const int used_seeds = seeds > 0 ? seeds : e->default_seeds;
    auto mark = std::chrono::steady_clock::now();
    const auto lap = [&mark] {  // seconds since the previous lap
      const auto now = std::chrono::steady_clock::now();
      const double s = std::chrono::duration<double>(now - mark).count();
      mark = now;
      return s;
    };
    const Json doc = make_document(*e, r, used_seeds, jobs, wall, stable);
    document_s += lap();
    const std::string bytes = doc.dump(2);
    dump_s += lap();
    if (out_path == "-") {
      std::fwrite(bytes.data(), 1, bytes.size(), stdout);
      write_s += lap();
    } else {
      const std::string path =
          out_path.empty() ? "BENCH_" + e->name + ".json" : out_path;
      if (!write_file(path, bytes)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      write_s += lap();
      std::fprintf(stderr, "%-8s %6.2fs wall  %6.2fs solver  -> %s\n",
                   e->name.c_str(), wall, r.solver_seconds_total,
                   path.c_str());
    }
  }
  if (!trace_path.empty()) {
    if (!obs::trace::write_file(trace_path)) {
      std::fprintf(stderr, "cannot write trace %s\n", trace_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace -> %s (open in chrome://tracing)\n",
                 trace_path.c_str());
  }
  std::fprintf(stderr,
               "%zu experiment(s), %d job(s), %.2fs total  "
               "(serial: %.3fs document, %.3fs dump, %.3fs write)\n",
               selected.size(), jobs, total_wall, document_s, dump_s, write_s);
  return 0;
}
