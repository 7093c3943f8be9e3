// Power-state timeline: a deterministic per-gap journal of governor/ladder
// sleep decisions, exported as Chrome-trace/Perfetto tracks
// (docs/observability.md §timeline).
//
// The gap walk in src/sched/energy.cpp decides each memory island's idle
// gaps chronologically; when the timeline is recording, every decision of
// a walk over a configured ladder or under a governor (predicted idle,
// chosen rung, actual gap, outcome) is journaled under a *pass* — one pass
// per compute_energy call. Serialization turns each pass into its own tid
// of well-nested B/E spans (one span per gap, annotated with
// prediction/actual/state), plus one "C" counter track per island showing
// sleep-state residency (value = rung + 1 while asleep, 0 awake) and any
// caller-supplied counter tracks (sdem_cli adds per-core CPU speed from
// the schedule).
//
// Timestamps are *simulated* seconds (reported as microseconds), not wall
// clock, so the journal is a pure function of the accounting sequence —
// byte-identical across reruns of a serial tool like `sdem_cli
// --power-trace`. Recording is off unless a tool enables it
// (`sdem_cli --power-trace out.json`, `sdem_bench_runner --trace`) and the
// journal only ever *records* — it never feeds back into the numerics, so
// the --stable byte-identity contract is untouched.
#pragma once

#include <cstdint>
#include <string>

#include "support/json.hpp"

namespace sdem::obs::timeline {

/// What happened to one idle gap.
enum class Outcome {
  kIdle,        ///< no sleep chosen (rung < 0): gap charged at idle power
  kCycle,       ///< committed sleep, gap >= break-even: the bet paid off
  kMispredict,  ///< committed sleep but gap < xi_m[k]: cost more than idle
  kAbort,       ///< gap < exit latency: sleep cut short, pair energy sunk
};

/// Whether the journal is recording (one relaxed atomic load).
bool enabled();

/// Clear the journal and begin recording.
void start();

/// Stop recording; journaled passes stay available for serialization.
void stop();

/// Drop every journaled pass and counter track.
void clear();

/// Open a decision track for one accounting walk over one memory island.
/// Returns the pass id to hand to record_decision, or -1 when not
/// recording (record_decision ignores -1, so callers can stay branch-free).
int begin_pass(int island, const std::string& label);

/// Journal one gap decision on `pass`. Times are simulated seconds;
/// `predicted_s` < 0 means "no prediction" (clairvoyant or static
/// disciplines); `chosen_state` < 0 means the gap was left idle-awake.
void record_decision(int pass, double t0_s, double t1_s, double predicted_s,
                     int chosen_state, Outcome outcome);

/// Append one sample to a named counter track (e.g. "cpu/core0/speed").
/// `t_s` is simulated seconds. No-op while not recording.
void counter_sample(const std::string& track, double t_s, double value);

/// Serialize the journal as a standalone Chrome-trace document
/// ({"traceEvents": [...], "displayTimeUnit": "ms"}).
Json to_json();

/// Append the journal's events to an existing traceEvents array (the
/// shared-file path: trace::to_json() merges the timeline, pid 1, next to
/// the scoped-timer spans, pid 0).
void append_events(Json& trace_events);

/// stop() + serialize + write to `path`. Returns false on IO failure.
bool write_file(const std::string& path);

}  // namespace sdem::obs::timeline
