#include "testing/fuzz_driver.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>

#include "support/rng.hpp"
#include "testing/generators.hpp"
#include "testing/repro_io.hpp"

namespace sdem::testing {
namespace {

namespace fs = std::filesystem;

constexpr int kShrinkAttempts = 400;  ///< predicate budget per shrink

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::string write_repro(const FuzzOptions& opts, const FuzzFailure& failure) {
  if (opts.out_dir.empty()) return {};
  std::error_code ec;
  fs::create_directories(opts.out_dir, ec);  // best effort; open() reports
  std::ostringstream name;
  name << to_string(failure.reduced.model) << "-seed"
       << failure.original.seed << ".repro.json";
  const fs::path path = fs::path(opts.out_dir) / name.str();
  std::ofstream out(path);
  if (!out) return {};
  out << repro_to_json(failure.reduced, failure.violations);
  return path.string();
}

void narrate_failure(const FuzzFailure& f, const FuzzOptions& opts,
                     std::ostream& log) {
  log << "FAIL [" << to_string(f.original.model) << " seed " << f.original.seed
      << "] " << summarize(f.violations) << "\n";
  for (const auto& v : f.violations) {
    log << "  " << v.invariant << ": " << v.detail << "\n";
  }
  log << "  tasks: " << f.original.tasks.size() << " -> "
      << f.reduced.tasks.size() << " after shrink\n";
  if (!f.repro_path.empty()) log << "  repro: " << f.repro_path << "\n";
  if (!opts.quiet) {
    // common_release + seed 7 -> "CommonReleaseSeed7".
    std::string test_name;
    bool upper = true;
    for (char ch : to_string(f.reduced.model)) {
      if (ch == '_') {
        upper = true;
        continue;
      }
      test_name += upper ? static_cast<char>(std::toupper(ch)) : ch;
      upper = false;
    }
    test_name += "Seed" + std::to_string(f.original.seed);
    log << "  --- regression test body ---\n"
        << repro_test_body(f.reduced, test_name)
        << "  ----------------------------\n";
  }
}

}  // namespace

FuzzReport run_fuzz(const FuzzOptions& opts, std::ostream& log) {
  const auto t0 = std::chrono::steady_clock::now();
  FuzzReport report;
  if (opts.models.empty()) return report;

  // Independent per-case seeds: case k of the run draws the k-th SplitMix64
  // output, so any failing case replays from (model, case seed) alone.
  SplitMix64 seeder(opts.seed);

  long per_model[kNumModelClasses] = {};
  std::size_t next_model = 0;
  while (true) {
    if (opts.budget_seconds > 0.0 &&
        seconds_since(t0) >= opts.budget_seconds) {
      report.budget_exhausted = true;
      break;
    }
    // Rotate over the selected classes; stop when every class hit its cap.
    bool any_left = false;
    for (std::size_t i = 0; i < opts.models.size(); ++i) {
      const auto m = opts.models[(next_model + i) % opts.models.size()];
      if (opts.cases <= 0 || per_model[static_cast<int>(m)] < opts.cases) {
        next_model = (next_model + i) % opts.models.size();
        any_left = true;
        break;
      }
    }
    if (!any_left) break;
    const ModelClass model = opts.models[next_model];
    next_model = (next_model + 1) % opts.models.size();

    const std::uint64_t case_seed = seeder.next();
    const FuzzCase c = generate_case(model, case_seed);
    ++report.cases_run;
    ++per_model[static_cast<int>(model)];

    if (check_case(c, opts.check).empty()) continue;

    FuzzFailure failure;
    failure.original = c;
    auto shrunk = shrink_case(c, opts.check, kShrinkAttempts);
    failure.reduced = std::move(shrunk.reduced);
    failure.violations = std::move(shrunk.violations);
    failure.repro_path = write_repro(opts, failure);
    narrate_failure(failure, opts, log);
    report.failures.push_back(std::move(failure));
    if (opts.max_failures > 0 &&
        static_cast<int>(report.failures.size()) >= opts.max_failures) {
      log << "stopping after " << report.failures.size() << " failures\n";
      break;
    }
  }

  for (int i = 0; i < kNumModelClasses; ++i) {
    report.cases_per_model[i] = per_model[i];
  }
  report.seconds = seconds_since(t0);
  return report;
}

bool replay_repro(const std::string& path, const CheckOptions& check,
                  std::ostream& log) {
  std::ifstream in(path);
  if (!in) {
    log << path << ": cannot open\n";
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  FuzzCase c;
  try {
    c = repro_from_json(buf.str());
  } catch (const std::exception& e) {
    log << path << ": " << e.what() << "\n";
    return false;
  }
  const auto violations = check_case(c, check);
  if (violations.empty()) {
    log << path << ": clean (" << c.tasks.size() << " tasks, "
        << to_string(c.model) << ")\n";
    return true;
  }
  log << path << ": " << violations.size() << " violation(s)\n";
  for (const auto& v : violations) {
    log << "  " << v.invariant << ": " << v.detail << "\n";
  }
  return false;
}

int replay_corpus(const std::string& dir, const CheckOptions& check,
                  std::ostream& log) {
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 11 &&
        name.compare(name.size() - 11, 11, ".repro.json") == 0) {
      files.push_back(entry.path().string());
    }
  }
  if (ec) {
    log << dir << ": " << ec.message() << "\n";
    return 1;
  }
  std::sort(files.begin(), files.end());  // deterministic order
  int failing = 0;
  for (const auto& f : files) {
    if (!replay_repro(f, check, log)) ++failing;
  }
  log << "corpus: " << files.size() << " file(s), " << failing
      << " failing\n";
  return failing;
}

}  // namespace sdem::testing
