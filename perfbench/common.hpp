// Shared pieces of perfbench_harness: the generated request streams, the
// clock, percentiles, process CPU readings and the in-memory span log.
//
// The harness drives the programs under test (serve.cpp) and times calls
// into the library's layers (layers.cpp); harness.cpp owns the command
// line, the output checks and the result JSON.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/task.hpp"
#include "support/json.hpp"

namespace perfbench {

/// Monotonic nanoseconds (CLOCK_MONOTONIC).
std::uint64_t now_ns();

/// Nearest-rank percentile of `v` (sorted in place); q in (0, 1].
double percentile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// One serve-load shape: the paper's §8.1.2 generator with `islands`
/// long-lived islands of `per_island` arrivals each. Requests released
/// before `warm_until` seconds form the warm-up prefix (every island
/// created, pending count at or near its steady level); they are answered
/// during set-up and are not latency samples.
struct Shape {
  std::string name;
  int islands = 0;
  int per_island = 0;
  double region_lo = 0.010;  ///< deadline region, seconds
  double region_hi = 0.120;
  double warm_until = 0.0;
};

/// The named shapes: paper, backlog, smoke. Throws on other names.
Shape shape_named(const std::string& name);

struct StreamRequest {
  bool query = false;
  int island = 0;
  int task_id = -1;  ///< SUBMIT only
  std::string line;  ///< one ndjson request, no newline
};

/// Closed-loop input for two connections. Islands are split between the
/// connections by parity; each connection's requests follow the merged
/// release order of its islands, and every 10th request is a QUERY of an
/// island that connection has already fed.
struct Stream {
  static constexpr int kConns = 2;
  std::vector<StreamRequest> conn[kConns];
  std::size_t warm[kConns] = {0, 0};  ///< warm-up prefix length per conn
  /// Per island, its arrivals in release order (the verification input).
  std::vector<std::vector<sdem::Task>> island_tasks;
  std::uint64_t digest[kConns] = {0, 0};  ///< FNV-1a over the lines
  std::size_t submits[kConns] = {0, 0};
  std::size_t queries[kConns] = {0, 0};
};

Stream make_stream(const Shape& shape, std::uint64_t seed);

/// Sum of on-CPU nanoseconds over the threads of `pid` (from
/// /proc/<pid>/task/*/schedstat), optionally skipping one thread id.
std::uint64_t process_cpu_ns(int pid, int skip_tid = -1);

/// Seconds of CPU time the hypervisor has stolen from this host, summed
/// over its CPUs (the steal column of /proc/stat).
double host_steal_s();

/// VmHWM of `pid` in MiB, or -1 when unreadable.
double peak_rss_mb(int pid);

/// In-memory span log; written as JSON when the harness exits.
struct Span {
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::int64_t parent;  ///< index into the log, -1 for a root
  std::int64_t request;  ///< request id, -1 when not per request
};

class SpanLog {
 public:
  std::int64_t add(const char* name, std::uint64_t start, std::uint64_t end,
                   std::int64_t parent = -1, std::int64_t request = -1);
  /// Set the end of an open span (one added with end == start).
  void close(std::int64_t index, std::uint64_t end);
  /// Append spans whose parent indices are relative to `more`.
  void append(const std::vector<Span>& more);
  std::size_t size() const { return spans_.size(); }
  /// {"spans": [[name, start_ns, end_ns, parent, request], ...]}
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
