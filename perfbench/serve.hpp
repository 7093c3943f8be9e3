// Closed-loop load against a live sdem_service daemon over localhost TCP.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// One slice of the measured phase: a run of consecutive responses over
/// both connections, cut without pausing the loop. Latency samples are
/// nanoseconds; a failed request is recorded as +inf.
struct Segment {
  std::vector<double> submit_ns;
  std::vector<double> query_ns;
  std::size_t answered = 0;
  double wall_s = 0.0;
  double steal_s = 0.0;  ///< host CPU time stolen by the hypervisor
};

/// What one daemon launch returned.
struct ServeRun {
  double setup_s = 0.0;  ///< launch until the warm-up prefix was answered
  double setup_cpu_s = 0.0;  ///< daemon CPU over that same span
  std::vector<Segment> segments;  ///< the measured phase, in order
  double cpu_s = 0.0;  ///< daemon CPU over the whole measured phase
  double peak_rss_mb = 0.0;   ///< daemon VmHWM at the end of the run
  /// Raw response lines per connection, request order (warm-up included).
  std::vector<std::string> responses[Stream::kConns];
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< refused/dropped/missing/extra responses
  /// Requests still unanswered after kRescueAfterMs, for which a STATS
  /// barrier was sent to drain every shard (serve.cpp).
  std::size_t rescued = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
};

/// A request unanswered for this long may be stuck in the service's shard
/// hand-off, which can lose a wake-up (perfbench/NOTES.md): it is rescued
/// with a STATS barrier and counted in ServeRun::rescued. A slow commit on
/// serve-backlog takes ~20 ms, a round trip on serve-paper ~0.1 ms.
constexpr int kRescueAfterMs = 200;

/// Launch `service_bin` (sdem-on, 2 shards, one acceptor, a free port),
/// connect twice for the load and once for rescue barriers, replay the
/// warm-up prefix, then — when `segments` > 0 — the rest of the stream cut
/// into about that many segments, and finally SHUTDOWN. The daemon has
/// always exited when this returns.
ServeRun serve_once(const std::string& service_bin, const Stream& stream,
                    int segments);

/// Count responses that are not {"ok":true,...} with the request's op,
/// island and (SUBMIT) id echoed, or whose seq does not increase along the
/// connection. Adds descriptions of the first few to `errors`.
std::size_t check_responses(const Stream& stream, const ServeRun& run,
                            std::vector<std::string>& errors);

}  // namespace perfbench
