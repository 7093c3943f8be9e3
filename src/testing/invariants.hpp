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

struct CheckOptions {
  double pair_tol = 1e-9;       ///< equivalent-solver relative agreement
  double account_tol = 1e-7;    ///< analytic vs re-accounted energy
  double order_tol = 1e-7;      ///< slack on ordering invariants
  double ref_tol = 1e-4;        ///< one-sided optimality vs grid reference
  double ref_loose_tol = 5e-3;  ///< two-sided agreement with the reference
  std::size_t ref_grid = 20000; ///< grid for the 1-D reference scans
  std::size_t ref_block_grid = 60;  ///< grid for the agreeable 2-D blocks
  int max_ref_n = 7;            ///< grid references only for n <= this
  int max_cross_n = 14;         ///< cross-solver DP checks only below this
  bool run_reference = true;    ///< enable the slow grid-reference oracles
  ThreadPool* pool = nullptr;   ///< when set: parallel-replay determinism
};

/// Run every applicable invariant; empty result == case is clean.
std::vector<Violation> check_case(const FuzzCase& c,
                                  const CheckOptions& opts = {});

/// One-line summary ("order:lower-bound; pair:binary-vs-scan") for logs.
std::string summarize(const std::vector<Violation>& v);

}  // namespace sdem::testing
