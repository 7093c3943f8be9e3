// Traced passes: in-process calls into the library's layers, timed from
// the benchmark's own code. Each pass records spans into a SpanLog.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"
#include "support/json.hpp"

namespace perfbench {

/// service.service: an eager in-process Service (2 shards, one producer)
/// fed each connection's requests in order with one in flight per
/// connection, as the TCP client does. Times route_raw() until the done
/// callback.
struct RoutePass {
  std::vector<double> route_ns;  ///< measured (post-warm-up) requests
  std::vector<sdem::Json> submit_responses;
  std::vector<sdem::Json> query_responses;
  double busy_frac = 0.0;  ///< pool CPU / (shards x wall)
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< error envelopes
  /// Requests still unanswered after kRescueAfterMs, for which
  /// Service::drain_all was called (the in-process rescue barrier).
  std::size_t rescued = 0;
};
RoutePass route_pass(const Stream& stream, SpanLog& spans);

/// sim.event_sim + core.online_sdem: one StreamSim per island driven by a
/// forwarding policy that times every replan; inject_arrival + commit per
/// SUBMIT. Islands run in parallel on `threads` workers. The same loop is
/// first run with a plain SdemOnPolicy and no spans, the untraced total
/// the trace overhead is measured against.
struct CommitPass {
  std::vector<double> commit_ns;  ///< per measured SUBMIT
  std::vector<double> replan_ns;  ///< per replan during a measured commit
  std::vector<double> self_ns;    ///< commit minus its replans
  std::vector<double> pending;    ///< pending tasks after each commit
  std::uint64_t empty_plans = 0;  ///< replans with no segment, work pending
  int stuck_islands = 0;          ///< islands whose last replan was empty
  double island_seconds = 0.0;    ///< summed per-island pass time
  double plain_seconds = 0.0;     ///< the same, untraced
  std::map<std::string, std::uint64_t> counters;  ///< obs deterministic
};
CommitPass commit_pass(const Stream& stream, double warm_until, int threads,
                       SpanLog& spans);

/// service.protocol + support.json: standalone per-call timings.
struct WirePass {
  double peek_ns = 0.0;
  double parse_ns = 0.0;
  double submit_dump_ns = 0.0;
  double query_dump_us = 0.0;
  double query_bytes = 0.0;
};
WirePass wire_pass(const Stream& stream, const RoutePass& route,
                   SpanLog& spans);

/// bench: the named experiments run in-process at their default seeds on
/// a `jobs`-thread pool, one span and one counter snapshot each when
/// traced. The stable data section of each result goes to
/// `<out_dir>/<name>.json`.
struct SweepPass {
  std::vector<std::pair<std::string, double>> seconds;  ///< run call
  std::map<std::string, std::map<std::string, std::uint64_t>> counters;
  double wall_s = 0.0;
  double busy_frac = 0.0;  ///< process CPU / (jobs x wall)
  std::size_t failed = 0;
  std::vector<std::string> errors;
};
/// With `spans` null the pass is untraced: no spans, no counter snapshots.
SweepPass sweep_pass(const std::vector<std::string>& names, int jobs,
                     const std::string& out_dir, SpanLog* spans);

}  // namespace perfbench
