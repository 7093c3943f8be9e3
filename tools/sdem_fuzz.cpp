// sdem_fuzz — seeded differential fuzzer over the SDEM solver stack.
//
//   sdem_fuzz [--cases N] [--budget-seconds S] [--seed S]
//             [--model all|common_release|agreeable|general|sleep_ladder]
//             [--out-dir DIR] [--jobs N] [--no-reference]
//             [--max-failures N] [--quiet]
//   sdem_fuzz --replay FILE.repro.json [FILE2 ...]
//   sdem_fuzz --replay-dir DIR
//
// Generates random task sets per model class, runs every applicable solver
// pair against its oracle, and checks the invariant library in
// src/testing/invariants.hpp. Failures shrink to minimal reproducers and
// are written as self-contained .repro.json files (plus a ready-to-paste
// regression test body on stdout).
//
// Exit codes: 0 clean, 1 invariant violations found, 2 usage error.
//
// CI wiring (see docs/testing.md): the ASan/UBSan job runs a 500-case
// smoke, the nightly job runs --budget-seconds 600 per model class and
// uploads any repro corpus as an artifact; tests/corpus/ is replayed by
// ctest on every build.
#include <climits>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "int_flag.hpp"
#include "obs/trace.hpp"
#include "support/thread_pool.hpp"
#include "testing/fuzz_driver.hpp"

namespace {

using sdem::tools::int_flag;
using sdem::tools::positive_arg;

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options]\n"
      << "  --cases N           max cases per model class (default 1000;\n"
      << "                      0 = no cap)\n"
      << "  --budget-seconds S  wall-clock budget across the run, a\n"
      << "                      number > 0 (default: no cap)\n"
      << "  --seed S            master seed (default 1)\n"
      << "  --model M           all|common_release|agreeable|general|\n"
      << "                      sleep_ladder\n"
      << "                      (repeatable; default all)\n"
      << "  --out-dir DIR       write .repro.json files here\n"
      << "  --jobs N            threads for the parallel-replay check,\n"
      << "                      0..1024 (default 2; 0 disables the check)\n"
      << "  --max-failures N    stop after N distinct failures (default 5;\n"
      << "                      0 = no limit)\n"
      << "  --no-reference      skip the slow grid-reference oracles\n"
      << "  --quiet             no per-failure regression-test dump\n"
      << "  --replay FILE...    replay repro files instead of fuzzing\n"
      << "  --replay-dir DIR    replay every *.repro.json in DIR\n"
      << "  --trace PATH        record a chrome://tracing JSON of the run\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using sdem::testing::FuzzOptions;
  using sdem::testing::ModelClass;

  FuzzOptions opts;
  opts.models.clear();
  int jobs = 2;
  std::vector<std::string> replay_files;
  std::string replay_dir;
  std::string trace_path;

  const auto bad = [&] { return usage(argv[0]); };
  const auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << argv[i] << " requires a value\n";
      std::exit(usage(argv[0]));
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--cases") {
      opts.cases = int_flag("--cases", need_value(i), 0L, LONG_MAX, bad);
    } else if (arg == "--budget-seconds") {
      opts.budget_seconds =
          positive_arg("--budget-seconds", need_value(i), bad);
    } else if (arg == "--seed") {
      opts.seed = int_flag<std::uint64_t>(
          "--seed", need_value(i), 0,
          std::numeric_limits<std::uint64_t>::max(), bad);
    } else if (arg == "--model") {
      const std::string m = need_value(i);
      if (m == "all") {
        opts.models = {ModelClass::kCommonRelease, ModelClass::kAgreeable,
                       ModelClass::kGeneral, ModelClass::kSleepLadder};
      } else {
        try {
          opts.models.push_back(sdem::testing::model_class_from_string(m));
        } catch (const std::exception& e) {
          std::cerr << e.what() << "\n";
          return usage(argv[0]);
        }
      }
    } else if (arg == "--out-dir") {
      opts.out_dir = need_value(i);
    } else if (arg == "--jobs") {
      jobs = int_flag("--jobs", need_value(i), 0, 1024, bad);
    } else if (arg == "--max-failures") {
      opts.max_failures =
          int_flag("--max-failures", need_value(i), 0, INT_MAX, bad);
    } else if (arg == "--no-reference") {
      opts.check.run_reference = false;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (arg == "--replay") {
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        replay_files.push_back(argv[++i]);
      }
      if (replay_files.empty()) {
        std::cerr << "--replay requires at least one file\n";
        return usage(argv[0]);
      }
    } else if (arg == "--replay-dir") {
      replay_dir = need_value(i);
    } else if (arg == "--trace") {
      trace_path = need_value(i);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      return usage(argv[0]);
    }
  }
  if (opts.models.empty()) {
    opts.models = {ModelClass::kCommonRelease, ModelClass::kAgreeable,
                   ModelClass::kGeneral, ModelClass::kSleepLadder};
  }

  if (!trace_path.empty()) sdem::obs::trace::start();
  const auto finish = [&](int rc) {
    if (trace_path.empty()) return rc;
    if (!sdem::obs::trace::write_file(trace_path)) {
      std::cerr << "cannot write trace " << trace_path << "\n";
      return rc == 0 ? 1 : rc;
    }
    std::cerr << "trace -> " << trace_path
              << " (open in chrome://tracing)\n";
    return rc;
  };

  std::unique_ptr<sdem::ThreadPool> pool;
  if (jobs > 0) {
    pool = std::make_unique<sdem::ThreadPool>(jobs);
    opts.check.pool = pool.get();
  }

  // Replay mode: no generation, just re-check the given cases.
  if (!replay_files.empty() || !replay_dir.empty()) {
    int failing = 0;
    for (const auto& f : replay_files) {
      if (!sdem::testing::replay_repro(f, opts.check, std::cout)) ++failing;
    }
    if (!replay_dir.empty()) {
      failing += sdem::testing::replay_corpus(replay_dir, opts.check,
                                              std::cout);
    }
    return finish(failing == 0 ? 0 : 1);
  }

  const auto report = sdem::testing::run_fuzz(opts, std::cout);
  std::cout << "fuzz: " << report.cases_run << " cases ("
            << report.cases_per_model[0] << " common_release, "
            << report.cases_per_model[1] << " agreeable, "
            << report.cases_per_model[2] << " general, "
            << report.cases_per_model[3] << " sleep_ladder) in "
            << report.seconds << "s"
            << (report.budget_exhausted ? " [budget]" : "") << ", "
            << report.failures.size() << " failure(s)\n";
  return finish(report.clean() ? 0 : 1);
}
