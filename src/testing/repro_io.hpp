// Self-contained .repro.json reproducer files.
//
// A repro file carries everything needed to re-run one fuzz case — model
// class, full system config, ladder, task set — plus the violations that
// were observed when it was written (informational: replay re-derives
// them). Doubles round-trip bit-exactly through support/json's number
// rendering, so a replayed case is the exact case that failed, not a close
// cousin.
//
// repro_test_body() additionally renders the case as a ready-to-paste
// GoogleTest regression test so a confirmed bug can be pinned in
// tests/test_fuzz.cpp (or a dedicated regression suite) verbatim.
#pragma once

#include <string>
#include <vector>

#include "testing/fuzz_case.hpp"
#include "testing/invariants.hpp"

namespace sdem::testing {

/// Pretty-printed JSON document for the case (+ the violations observed).
std::string repro_to_json(const FuzzCase& c,
                          const std::vector<Violation>& violations = {});

/// Parse a repro document. Throws std::invalid_argument on malformed input,
/// missing fields, a task id that is not an integer (the wire's rule) or a
/// task set that TaskSet::validate() refuses.
FuzzCase repro_from_json(const std::string& text);

/// A ready-to-paste TEST(...) body reproducing the case through
/// check_case(). `test_name` must be a valid identifier suffix.
std::string repro_test_body(const FuzzCase& c, const std::string& test_name);

}  // namespace sdem::testing
