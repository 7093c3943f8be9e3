// Wire protocol for sdem_service (docs/service.md is the normative spec).
//
// Newline-delimited JSON: every request is one JSON object on one line,
// every response is one JSON object on one line, and response order equals
// request order (per connection). Five operations:
//
//   {"op":"SUBMIT","island":0,"task":{"id":1,"release":0.0,
//                                     "deadline":0.5,"work":200.0}}
//   {"op":"QUERY","island":0}
//   {"op":"STATS"}
//   {"op":"METRICS"}
//   {"op":"SHUTDOWN"}
//
// This header owns the request grammar (parse + validation diagnostics) and
// the response envelopes; src/service/service.hpp owns the semantics.
#pragma once

#include <cstdint>
#include <string>

#include "model/task.hpp"
#include "support/json.hpp"

namespace sdem::service {

enum class Op { kSubmit, kQuery, kStats, kMetrics, kShutdown };

/// Island ids are integers in [0, kMaxIslands). Each island a SUBMIT
/// creates holds its own policy and simulator (about 2 KB when new), so
/// the cap bounds what clients can make the daemon hold.
constexpr int kMaxIslands = 4096;

/// Wire spelling of an op ("SUBMIT", ...).
const char* op_name(Op op);

struct Request {
  Op op = Op::kStats;
  int island = 0;         ///< SUBMIT/QUERY routing key
  Task task;              ///< SUBMIT payload
  std::uint64_t seq = 0;  ///< ingest order; assigned by the daemon
  int conn = -1;          ///< daemon-side connection id (not wire data)
  std::uint64_t conn_seq = 0;  ///< per-connection request order (not wire)
  /// obs::now_ns() when the request entered the ingest path (not wire
  /// data); 0 when unknown. Feeds the windowed end-to-end latency
  /// histograms behind METRICS (docs/service.md).
  std::uint64_t ingest_ns = 0;
};

/// Outcome of parsing one request line. `ok == false` carries a diagnostic
/// suitable for an error response; the line is consumed either way.
struct Parsed {
  bool ok = false;
  Request request;
  std::string error;
};

/// Parse and validate one request line against the grammar above. Never
/// throws: malformed JSON, wrong types, unknown ops, islands outside
/// [0, kMaxIslands) and invalid tasks (work < 0, deadline <= release,
/// non-finite fields) all come back as `ok == false` with a one-line
/// diagnostic.
Parsed parse_request(const std::string& line);

/// Routing peek: the op and island of a request line, found with one
/// allocation-free scan instead of a DOM parse. This is what lets the
/// ingest thread route raw lines to shards and leave the expensive
/// parse_request() to the shard workers (parse-on-shard, docs/service.md).
///
/// The scanner walks the line once, skipping strings (with escapes) and
/// nested objects/arrays by depth, and records the *last* top-level "op"
/// and "island" members — matching Json::parse, whose set() semantics keep
/// the last duplicate key. `island` is only recognized as a plain
/// non-negative integer literal <= 1e9; anything else (floats, 2e3,
/// overlong) leaves island at -1.
///
/// peek is opportunistic, never authoritative: `routable()` false means
/// "fall back to parse_request() on the ingest thread", not "malformed" —
/// e.g. {"island":2.0} is valid to the full parser but not peekable. A
/// shard that full-parses a peeked line re-checks that the parsed request
/// still routes to it (service.cpp) so a peek/parse disagreement can never
/// touch another shard's state.
struct Peeked {
  Op op = Op::kStats;
  bool has_op = false;
  int island = -1;
  bool routable() const {
    return has_op && (op == Op::kSubmit || op == Op::kQuery) && island >= 0;
  }
};
Peeked peek_request(const std::string& line);

/// {"ok":false,"seq":...,"error":"..."} — the uniform failure envelope.
Json error_response(std::uint64_t seq, const std::string& message);

/// {"ok":true,"op":...,"seq":...} — success envelope; callers append the
/// op-specific fields.
Json ok_response(Op op, std::uint64_t seq);

}  // namespace sdem::service
