// Online scheduling service: memory islands sharded across the thread
// pool, fed by one ingest thread.
//
// One Service hosts many *memory islands* — independent (cores + DRAM rank)
// domains, each with its own policy instance and resumable StreamSim.
// Islands are sharded by id (island → shard `id % shards`); each shard owns
// its islands exclusively, so island state needs no locks.
//
// Request flow is a three-stage pipeline (docs/service.md §3):
//
//   ingest (one producer)  →  shard queues  →  shard drains (parse + solve)
//
//   * The producer is the one ingest thread: the daemon's event loop, or
//     the replay loop. route_raw() ships the *unparsed* line under its
//     (op, island) routing key, found by the allocation-free peek
//     (protocol.hpp peek_request); parse_request() runs in the shard's
//     drain.
//   * Staging batches queue traffic: route_raw() appends to a per-shard
//     buffer, and one lock round moves the whole batch when it fills or
//     flush() is called.
//   * Each shard has one bounded queue, guarded by one mutex. At most one
//     drain owns a shard (its `scheduled` flag), and a queued message
//     always has one: the push that finds no drain takes it in the same
//     critical section, and a drain retires only when it finds the queue
//     empty.
//   * The producer that takes the drain picks its thread. A short drain (a
//     few queued messages, a small pending set on the island the shard
//     served last) runs on the producer itself: a closed-loop request then
//     needs no pool wake-up. Nothing else pushes meanwhile, so it handles
//     what it found and retires. Anything longer goes to the pool. Without
//     a pool every drain is inline. The choice moves no message and
//     changes no byte.
//
// Determinism: an island's schedule is a pure function of its own arrival
// stream — shards never exchange state, and the producer's requests for
// one island traverse one FIFO queue — so any `shards` value produces
// identical per-island results (pinned by tests/test_service.cpp).
//
// Backpressure: a shard queue holds ServiceOptions::queue_capacity
// messages. The producer that finds it full waits on the shard's condition
// variable until the drain takes the queue — the ingest loop stops reading
// input and kernel socket buffers push the backpressure to clients,
// without a stalled shard costing a spinning core.
//
// Observability: each shard owns its latency cells, written by the drain
// that owns the shard — a cumulative per-commit replan histogram
// (obs::DistCell), summarized (p50/p99 from the log2 buckets) by stats(),
// and two *sliding-window* histograms (obs/window.hpp), per-commit replan
// latency and ingest-to-response latency over the last 8 s, which back the
// METRICS verb's Prometheus exposition (metrics()/metrics_text(),
// docs/service.md §METRICS) together with request, backpressure-stall and
// drain-placement counts. Like the islands, the cells need no lock: the
// `scheduled` hand-off orders each drain after the last, and the readers
// run after drain_all(). Each Service reports only its own requests.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/power.hpp"
#include "service/protocol.hpp"
#include "sim/event_sim.hpp"
#include "support/thread_pool.hpp"

namespace sdem::service {

/// Policy instances by wire name: sdem-on | sdem-on-eager | mbkp | race |
/// stretch | critical. Returns nullptr for unknown names. Every island gets
/// its own instance (policies are stateful between replans).
std::unique_ptr<OnlinePolicy> make_policy(const std::string& name);

struct ServiceOptions {
  SystemConfig cfg = SystemConfig::paper_default();
  std::string policy = "sdem-on";
  int shards = 1;
  /// Ingest threads: only 1 is accepted, and the constructor throws for
  /// any other value. Kept because the benchmark harness
  /// (perfbench/layers.cpp) sets it.
  int producers = 1;
  /// Live mode commits (replan + answer) on every SUBMIT and keeps no
  /// history: an island holds its pending tasks, its plan and its id set.
  /// Replay mode batches same-instant arrivals exactly like the batch
  /// simulator and records each island's tasks and executed segments, so
  /// the full SimResult (replans included) matches simulate().
  bool eager = true;
  /// A shard's queue holds this many messages; the producer waits for the
  /// drain when it finds the queue full.
  std::size_t queue_capacity = 1024;
};

class Service {
 public:
  /// `done(request, response)` fires once per routed request, on a pool
  /// thread or on the producer thread whose route_raw()/flush() ran the
  /// drain inline. It must therefore not call back into the Service.
  /// Responses for one connection arrive in order only after the caller
  /// re-orders them (the daemon's event loop does, keyed on
  /// Request::conn_seq). For lines that fail to parse, `request` is a
  /// routing stub (seq/conn/conn_seq valid, task fields not).
  /// `pool` may be null: requests are then drained inline by route_raw()/
  /// flush() — the serial reference the sharded runs must match.
  /// Throws std::invalid_argument for an unknown policy name, an unbounded
  /// cfg (an online stream has no task count to size cores from),
  /// shards < 1, or producers other than 1.
  Service(ServiceOptions opt, ThreadPool* pool,
          std::function<void(const Request&, Json)> done);
  ~Service();

  /// Stage one SUBMIT/QUERY line for shard routing; the shard's drain
  /// parses it (parse-on-shard). `island`/`op` are the line's routing key:
  /// its peek (protocol.hpp peek_request) when routable, else its full
  /// parse. seq/conn/conn_seq ride along for response ordering. Staged
  /// lines are pushed to the shard's queue in batches; call flush() at the
  /// end of an ingest chunk to bound latency. Only the producer thread
  /// calls route_raw() and flush().
  void route_raw(int island, Op op, std::string line, std::uint64_t seq,
                 int conn, std::uint64_t conn_seq);

  /// Push the staged batches to the shard queues (waiting while one is
  /// full) and schedule drains.
  void flush();

  /// Block until every *flushed* request has been processed (every shard's
  /// drain retired). Staged lines stay staged: the producer flushes before
  /// a barrier (the daemon does).
  void drain_all();

  /// Service-wide statistics (drains first, so the shards are quiesced):
  /// uptime, totals, and per-shard requests/throughput plus the count and
  /// p50/p99/mean/max of the shard's replan latency since construction.
  Json stats(std::uint64_t seq);

  /// METRICS envelope: ok/op/seq plus `body`, the Prometheus text
  /// exposition from metrics_text() (drains first, like stats()).
  Json metrics(std::uint64_t seq);

  /// Prometheus text exposition (docs/service.md §METRICS): uptime and
  /// request totals, per-shard requests / backpressure stalls / inline
  /// and pooled drains, windowed p50/p99/p999 replan and
  /// end-to-end latency per shard, and the cumulative registry counters
  /// (governor mispredict/abort rates included). Callers must quiesce first
  /// (metrics() and the daemon's barrier do).
  std::string metrics_text() const;

  /// Seconds since construction.
  double uptime_s() const;

  /// One island's finalized run. Its counts (replans, deadline misses,
  /// unfinished tasks, horizons) are filled in both modes; `tasks` and
  /// `result.schedule` only in replay mode (`eager == false`), since a
  /// live island records neither.
  struct IslandResult {
    int island = 0;
    std::string policy;
    std::vector<Task> tasks;  ///< injected arrivals, injection order
    SimResult result;
  };

  /// Flush the staging, drain, then finalize every island (ascending id)
  /// and return the per-island simulation results. Ends the current runs;
  /// a later SUBMIT to a finalized island is answered with an error.
  std::vector<IslandResult> finalize_all();

  std::uint64_t requests_processed() const;
  int shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Island;
  struct Shard;
  struct Msg;

  std::size_t shard_index(int island) const;
  Island& island_of(Shard& s, int island);
  /// Run the drain the caller owns (it set `scheduled`) inline or on the
  /// pool (service.cpp kInlineBatch, kInlinePending). `queued` is the
  /// queue length the caller's push left.
  void schedule_drain(Shard& s, std::size_t queued);
  /// Take and handle the queue until the drain finds it empty and retires.
  void drain(Shard& s);
  void flush_shard(std::size_t shard);
  /// Parse and process one message in the shard's drain.
  void handle(Shard& s, Msg& m);
  void process(Shard& s, Request& req);

  ServiceOptions opt_;
  ThreadPool* pool_;
  std::function<void(const Request&, Json)> done_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Per-shard batches awaiting a push; only the producer touches them.
  std::vector<std::vector<Msg>> staged_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace sdem::service
