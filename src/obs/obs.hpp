// Observability layer: hierarchical counters/gauges, RAII scoped timers,
// and (via obs/trace.hpp) a Chrome-trace event sink — the instrumentation
// spine behind `sdem_bench_runner --trace` and the per-experiment
// "counters" JSON section (docs/observability.md has the catalogue).
// Sliding-window histograms (obs/window.hpp) are not registry cells: each
// is a plain value its one writer owns.
//
// Design constraints, in order:
//
//   * One switch, decided at run time. The process-wide recording gate
//     (set_recording) decides whether the SDEM_OBS_* sites and ScopedTimer
//     write: closed, a site costs one relaxed load and a branch, and a
//     timer reads no clock. It defaults to open; sdem_bench_runner closes
//     it when its output carries nothing the layer collects. Cells a
//     caller owns and writes directly (the service's per-shard latency
//     cells, service.hpp) are not gated.
//
//   * Deterministic merge. Counters and distributions live in thread-local
//     shards; snapshot() folds the shards into one name-sorted view whose
//     *values* do not depend on how work was scheduled. Integer counters
//     are commutative sums. Distributions carry count/min/max, a log2
//     histogram (integer buckets), and a fixed-point sum (2^-20 units, so
//     the fold is an integer addition — no float reassociation across
//     shards). A sweep that computes the same cells therefore reports the
//     same Domain::kDeterministic metrics at --jobs 1 and --jobs 8; the
//     determinism test diffs the JSON bytes.
//
//   * Runtime metrics are quarantined. Wall-clock timers, pool idle time,
//     and tasks-per-worker are real observability but inherently depend on
//     the job count and the clock; they register as Domain::kRuntime and
//     render under a separate "runtime" JSON key so the deterministic
//     "counters" section keeps its byte-equality contract.
//
// Threading contract: cell *creation* (first use of a name on a thread) and
// snapshot()/reset() take locks; a thread's lookup of a cell it already
// created takes none, and cell *increments* are unsynchronized
// thread-local writes. Callers must quiesce instrumented work (e.g.
// ThreadPool::wait_idle) before snapshot()/reset() — exactly the moment a
// deterministic snapshot is meaningful anyway.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"

namespace sdem::obs {

namespace detail {
inline std::atomic<bool> recording_gate{true};
}  // namespace detail

/// Whether the SDEM_OBS_* sites and ScopedTimer record right now: the
/// runtime gate. One relaxed load.
inline bool recording() {
  return detail::recording_gate.load(std::memory_order_relaxed);
}

/// Open or close the recording gate (default open). Sites already past
/// their check finish as they started; a ScopedTimer closes the way it
/// opened. Flip it while instrumented work is quiesced to get whole counts.
inline void set_recording(bool on) {
  detail::recording_gate.store(on, std::memory_order_relaxed);
}

/// Metric domain: deterministic values are pure functions of the work
/// performed (identical at any --jobs); runtime values depend on
/// scheduling and the clock.
enum class Domain { kDeterministic, kRuntime };

/// Fixed-point scale for distribution sums: 2^-20 units (~1e-6 absolute
/// resolution per sample). Integer accumulation keeps the merged sum
/// independent of how samples were sharded across threads.
inline constexpr double kDistFxScale = 1048576.0;  // 2^20

/// Log2 histogram geometry: bucket 0 holds v <= 0; bucket i in [1, 127]
/// holds v with clamp(ilogb(v), -63, 62) == i - 64.
inline constexpr int kDistBuckets = 128;

/// Separator of "parent<sep>child" timer-edge cell names (ASCII record
/// separator, so it can never appear in a plain timer name literal). Every
/// closing ScopedTimer also accounts its elapsed time to the edge cell of
/// its innermost enclosing timer on the same thread; the flamegraph-style
/// rollup (`sdem_bench_runner --timer-rollup`) rebuilds the timer tree
/// from these edges, and Snapshot::runtime_json skips them so the plain
/// "timers" JSON section keeps its flat schema.
inline constexpr char kTimerEdgeSep = '\x1e';

/// A distribution cell: thread-local shard storage in the registry, or a
/// value its one writer owns (a windowed slice, a service shard's replan
/// latency). add() is the hot path: one llround, one ilogb, four
/// integer/double updates.
struct DistCell {
  std::uint64_t count = 0;
  std::int64_t sum_fx = 0;  ///< sum in kDistFxScale units
  double min = 0.0;
  double max = 0.0;
  std::uint64_t buckets[kDistBuckets] = {};

  void add(double v);
};

/// A timer cell (thread-local shard storage, Domain::kRuntime always).
struct TimerCell {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;

  void add(std::uint64_t ns) {
    ++count;
    total_ns += ns;
    if (ns > max_ns) max_ns = ns;
  }
};

/// Merged distribution (a snapshot's, a window's): same stats, sparse
/// histogram.
struct DistValue {
  std::uint64_t count = 0;
  std::int64_t sum_fx = 0;
  double min = 0.0;
  double max = 0.0;
  /// (bucket index - 64 = floor(log2(v)), count), ascending; index 0
  /// (nonpositive samples) is reported as exponent INT_MIN sentinel -9999.
  std::vector<std::pair<int, std::uint64_t>> buckets;

  /// Fold in a cell's samples: integer counts and sums, so any order of
  /// cells yields the same value.
  void merge(const DistCell& cell);

  double sum() const { return static_cast<double>(sum_fx) / kDistFxScale; }
  double mean() const { return count > 0 ? sum() / static_cast<double>(count) : 0.0; }
  /// Quantile estimate from the log2 histogram: the upper edge of the
  /// bucket holding the ceil(q*count)-th sample, clamped to the observed
  /// max; 0 when empty or when that sample is nonpositive. Coarse
  /// (factor-of-two buckets) but mergeable — what STATS and METRICS
  /// report.
  double percentile(double q) const;
};

/// Name-sorted, shard-merged view of every metric.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, DistValue>> dists;
  std::vector<std::pair<std::string, std::uint64_t>> runtime_counters;
  std::vector<std::pair<std::string, DistValue>> runtime_dists;
  std::vector<std::pair<std::string, TimerCell>> timers;

  /// Deterministic section: counters and dists, one object keyed by metric
  /// name in lexicographic order (byte-identical at any job count).
  Json counters_json() const;
  /// Runtime section: runtime counters/dists plus timers (ms).
  Json runtime_json() const;

  /// Test helpers: value lookup by exact name (null when absent).
  const std::uint64_t* counter(const std::string& name) const;
  const DistValue* dist(const std::string& name) const;
};

class Registry {
 public:
  static Registry& instance();

  /// Resolve a named cell in the calling thread's shard. Stable pointer
  /// (valid for the thread's lifetime and across reset()). Only the first
  /// use of a name on a thread locks; the SDEM_OBS_* macros still cache the
  /// result per call site per thread.
  std::uint64_t* counter_cell(const char* name, Domain domain);
  DistCell* dist_cell(const char* name, Domain domain);
  TimerCell* timer_cell(const char* name);

  /// Zero every cell in every shard (cells stay registered, so cached
  /// call-site pointers remain valid). Quiesce instrumented work first.
  void reset();

  /// Merge all shards into a name-sorted snapshot. Quiesce first.
  Snapshot snapshot() const;

  /// The calling thread's deterministic counters, name-sorted — the
  /// per-cell attribution primitive. A grid cell runs entirely on one
  /// worker thread, so reading this before and after the cell and diffing
  /// (bench_util.hpp's comparison_cell) yields counts that are a pure
  /// function of the cell's work, independent of scheduling or job count.
  /// Only the shard lock is taken; other shards are never touched.
  std::vector<std::pair<std::string, std::uint64_t>> local_counters();

 private:
  Registry() = default;
  struct Shard;
  Shard& local_shard();

  mutable std::vector<void*> shards_;  // Shard*, kept alive for process life
  // (mutex lives in the .cpp to keep this header light; see obs.cpp)
};

/// Monotonic nanoseconds since an arbitrary process-wide epoch.
std::uint64_t now_ns();

/// Convenience wrappers used by the macros below.
inline std::uint64_t* counter_cell(const char* name, Domain d) {
  return Registry::instance().counter_cell(name, d);
}
inline DistCell* dist_cell(const char* name, Domain d) {
  return Registry::instance().dist_cell(name, d);
}
inline TimerCell* timer_cell(const char* name) {
  return Registry::instance().timer_cell(name);
}

/// RAII scope timer: updates a TimerCell (runtime domain) and, when the
/// trace sink is recording, emits a Chrome B/E event pair on this thread.
/// Whether it records is decided once, when it opens: with the gate
/// closed it reads no clock, touches no timer stack, and closes as a no-op.
class ScopedTimer {
 public:
  /// Call-site-cached cell (the SDEM_OBS_TIMER macro); `name` must be a
  /// string literal (it is stored by pointer in trace events).
  ScopedTimer(const char* name, TimerCell* cell)
      : name_(name), cell_(recording() ? cell : nullptr) {
    if (cell_ != nullptr) open();
  }
  /// Dynamic-name scope (experiment-granularity; resolves the cell itself).
  /// `name` must outlive the trace sink's serialization.
  explicit ScopedTimer(const char* name);
  ~ScopedTimer() {
    if (cell_ != nullptr) close();
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  void open();
  void close();

  const char* name_;
  TimerCell* cell_;  ///< null when this timer does not record
  std::uint64_t t0_ = 0;
  bool traced_ = false;
};

#define SDEM_OBS_CONCAT_(a, b) a##b
#define SDEM_OBS_CONCAT(a, b) SDEM_OBS_CONCAT_(a, b)

/// Add `n` to a deterministic counter. `name` must be a string literal.
/// Neither the cell nor `n` is touched while the gate is closed.
#define SDEM_OBS_COUNT(name, n)                                              \
  do {                                                                       \
    if (!::sdem::obs::recording()) break;                                    \
    static thread_local std::uint64_t* sdem_obs_cell_ =                      \
        ::sdem::obs::counter_cell(name, ::sdem::obs::Domain::kDeterministic); \
    *sdem_obs_cell_ += static_cast<std::uint64_t>(n);                        \
  } while (0)
#define SDEM_OBS_INC(name) SDEM_OBS_COUNT(name, 1)

/// Runtime-domain counter (job-count/scheduling dependent).
#define SDEM_OBS_RUNTIME_COUNT(name, n)                                   \
  do {                                                                    \
    if (!::sdem::obs::recording()) break;                                 \
    static thread_local std::uint64_t* sdem_obs_cell_ =                   \
        ::sdem::obs::counter_cell(name, ::sdem::obs::Domain::kRuntime);   \
    *sdem_obs_cell_ += static_cast<std::uint64_t>(n);                     \
  } while (0)

/// Add a sample to a deterministic distribution gauge.
#define SDEM_OBS_DIST(name, v)                                               \
  do {                                                                       \
    if (!::sdem::obs::recording()) break;                                    \
    static thread_local ::sdem::obs::DistCell* sdem_obs_cell_ =              \
        ::sdem::obs::dist_cell(name, ::sdem::obs::Domain::kDeterministic);   \
    sdem_obs_cell_->add(v);                                                  \
  } while (0)

/// Runtime-domain distribution (e.g. worker idle time).
#define SDEM_OBS_RUNTIME_DIST(name, v)                                    \
  do {                                                                    \
    if (!::sdem::obs::recording()) break;                                 \
    static thread_local ::sdem::obs::DistCell* sdem_obs_cell_ =           \
        ::sdem::obs::dist_cell(name, ::sdem::obs::Domain::kRuntime);      \
    sdem_obs_cell_->add(v);                                               \
  } while (0)

/// Scoped timer statement; `name` must be a string literal. Block scope
/// only (expands to a declaration).
#define SDEM_OBS_TIMER(name)                                              \
  static thread_local ::sdem::obs::TimerCell* SDEM_OBS_CONCAT(            \
      sdem_obs_tc_, __LINE__) = ::sdem::obs::timer_cell(name);            \
  ::sdem::obs::ScopedTimer SDEM_OBS_CONCAT(sdem_obs_timer_, __LINE__)(    \
      name, SDEM_OBS_CONCAT(sdem_obs_tc_, __LINE__))

}  // namespace sdem::obs
