// Orchestration of differential fuzz runs: case generation, invariant
// checking, auto-shrinking, repro emission, and budget accounting.
//
// The driver is what both tools/sdem_fuzz and the CI jobs call. It rotates
// through the selected model classes, derives one independent seed per case
// from the master seed (SplitMix64), and stops on whichever of the two
// budgets — case count or wall-clock seconds — runs out first. Failures are
// shrunk to minimal reproducers and written as .repro.json files (plus a
// ready-to-paste regression test body in the log); the run keeps going
// until max_failures so one bug does not mask another.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "testing/invariants.hpp"
#include "testing/shrink.hpp"

namespace sdem::testing {

struct FuzzOptions {
  std::uint64_t seed = 1;        ///< master seed
  long cases = 1000;             ///< max cases per model class (<=0: no cap)
  double budget_seconds = 0.0;   ///< wall-clock budget (<=0: no cap)
  std::vector<ModelClass> models = {ModelClass::kCommonRelease,
                                    ModelClass::kAgreeable,
                                    ModelClass::kGeneral,
                                    ModelClass::kSleepLadder};
  int max_failures = 5;          ///< stop after this many distinct failures
  std::string out_dir;           ///< where .repro.json files go ("": no files)
  bool quiet = false;            ///< suppress per-failure test-body dump
  CheckOptions check;
};

struct FuzzFailure {
  FuzzCase original;             ///< as generated
  FuzzCase reduced;              ///< after shrinking
  std::vector<Violation> violations;  ///< of the reduced case
  std::string repro_path;        ///< written file ("" if out_dir unset)
};

struct FuzzReport {
  long cases_run = 0;
  long cases_per_model[kNumModelClasses] = {};  ///< indexed by ModelClass
  double seconds = 0.0;
  bool budget_exhausted = false;  ///< stopped on time rather than count
  std::vector<FuzzFailure> failures;

  bool clean() const { return failures.empty(); }
};

/// Run a fuzz session; progress and failures are narrated to `log`.
FuzzReport run_fuzz(const FuzzOptions& opts, std::ostream& log);

/// Replay one repro file: re-run check_case on the parsed case. Returns
/// true when the case is clean; violations are narrated to `log`.
bool replay_repro(const std::string& path, const CheckOptions& check,
                  std::ostream& log);

/// Replay every *.repro.json under `dir` (non-recursive). Returns the
/// number of files that still fail (0 == corpus clean).
int replay_corpus(const std::string& dir, const CheckOptions& check,
                  std::ostream& log);

}  // namespace sdem::testing
