// The invariant library of the differential fuzzer.
//
// Every fuzz case is checked against the full set of paper-level
// correctness claims that apply to its model class and variant flags:
//
//   * feasibility   — every solver must accept a feasible-by-construction
//                     case, and its schedule must pass sched/validate;
//   * accounting    — the analytic energy a solver reports must equal the
//                     energy re-derived from its schedule's segments;
//   * solver pairs  — fast path vs frozen reference oracle (agreeable
//                     incremental DP vs seed DP, online hot path vs
//                     sim/sim_reference, scratch overloads vs plain
//                     overloads, binary case search vs linear scan) must
//                     agree bit-for-bit or to 1e-9;
//   * optimality    — solver energy <= grid-reference energy (one-sided,
//                     tight) and agrees with it loosely (two-sided);
//   * ordering      — lower_bound <= OPT <= online heuristic, MBKPS <=
//                     MBKP, continuous OPT <= discrete-aware <= post-hoc
//                     discretization, section-7 energy >= section-4 energy;
//   * determinism   — serial vs thread-pool DP replay is bit-identical;
//   * sleep ladder  — ladder well-formedness, depth-1 ladder accounting
//                     bit-identical to the frozen single-state path,
//                     clairvoyant oracle <= never/always/governor, oracle
//                     energy monotone non-increasing in ladder depth, and
//                     per-state residency/transition rollups consistent.
//
// check_case is deterministic (no internal RNG) and returns every violated
// invariant, so the shrinker can preserve the failure signature while
// reducing, and a clean run really did check everything it claims.
#pragma once

#include <string>
#include <vector>

#include "testing/fuzz_case.hpp"

namespace sdem {
class ThreadPool;
}

namespace sdem::testing {

struct Violation {
  std::string invariant;  ///< stable identifier, e.g. "order:lower-bound"
  std::string detail;     ///< human-readable numbers
};

/// The checker's tolerances and reference sizes are constants in
/// invariants.cpp; these are what a caller may change.
struct CheckOptions {
  double order_tol = 1e-7;      ///< slack on ordering invariants
  bool run_reference = true;    ///< enable the slow grid-reference oracles
  ThreadPool* pool = nullptr;   ///< when set: parallel-replay determinism
};

/// Run every applicable invariant; empty result == case is clean.
std::vector<Violation> check_case(const FuzzCase& c,
                                  const CheckOptions& opts = {});

/// One-line summary ("order:lower-bound; pair:binary-vs-scan") for logs.
std::string summarize(const std::vector<Violation>& v);

}  // namespace sdem::testing
