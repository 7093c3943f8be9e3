// Online scheduling service: memory islands sharded across the thread
// pool, fed by a pipelined ingest path.
//
// One Service hosts many *memory islands* — independent (cores + DRAM rank)
// domains, each with its own policy instance and resumable StreamSim.
// Islands are sharded by id (island → shard `id % shards`); each shard owns
// its islands exclusively, so island state needs no locks.
//
// Request flow is a three-stage pipeline (docs/service.md §3):
//
//   ingest (N producers)  →  shard queues  →  shard drains (parse + solve)
//
//   * Producers are ingest threads (the daemon's event loop, or the replay
//     loop). Each shard has one bounded queue, guarded by one mutex,
//     that every producer pushes to. At most one drain owns a shard (its
//     `scheduled` flag), and a queued message always has one: the push
//     that finds no drain takes it in the same critical section, and a
//     drain retires only when it finds the queue empty.
//   * The producer that takes the drain picks its thread. A short drain (a
//     few queued messages, a small pending set on the island the shard
//     served last) runs on the producer itself: a closed-loop request then
//     needs no pool wake-up. Anything longer, and an inline drain that
//     outgrows its budget, goes to the pool. Without a pool every drain is
//     inline. The choice moves no message and changes no byte.
//   * route_raw() ships the *unparsed* line: the producer only needs the
//     peeked (op, island) routing key (protocol.hpp peek_request); the
//     expensive parse_request() runs in the shard's drain. route() ships an
//     already-parsed Request for callers that have one (tests and the
//     peek-miss fallback).
//   * Producer-side staging batches queue traffic: route_raw() appends to a
//     per-(producer, shard) buffer, and one lock round moves the whole
//     batch when it fills or flush() is called.
//
// Determinism: an island's schedule is a pure function of its own arrival
// stream — shards never exchange state, and one producer's requests for
// one island traverse one FIFO queue — so any `shards` value produces
// identical per-island results (pinned by tests/test_service.cpp).
//
// Backpressure: a shard queue holds ServiceOptions::queue_capacity
// messages per producer. A producer that finds it full waits on the
// shard's condition variable until the drain takes the queue — the ingest
// loop stops reading input and kernel socket buffers push the backpressure
// to clients, without a stalled shard costing a spinning core.
//
// Observability: each shard records per-request counts and per-commit
// replan latency into the obs *runtime* domain (`service/shard<k>/...`),
// summarized (p50/p99 from the log2 histograms) by stats(). On top of the
// cumulative cells, each shard feeds two *sliding-window* histograms
// (obs/window.hpp) — per-commit replan latency and ingest-to-response
// latency over the last few seconds — which back the METRICS verb's
// Prometheus exposition (metrics()/metrics_text(), docs/service.md §METRICS)
// together with queue-length, backpressure-stall and drain-placement
// counts.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/power.hpp"
#include "obs/obs.hpp"
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
  /// Ingest threads. Every producer index in [0, producers) owns a staging
  /// buffer per shard; calls into route()/route_raw()/flush() for one
  /// producer index must come from one thread at a time.
  int producers = 1;
  /// Live mode commits (replan + answer) on every SUBMIT; replay mode
  /// batches same-instant arrivals exactly like the batch simulator so the
  /// full SimResult (replans included) matches simulate().
  bool eager = true;
  /// A shard's queue holds this many messages per producer; a producer
  /// that finds it full waits for the drain.
  std::size_t queue_capacity = 1024;
};

class Service {
 public:
  /// `done(request, response)` fires once per routed request, on a pool
  /// thread or on the producer thread whose route()/route_raw()/flush()/
  /// drain_all() ran the drain inline. It must therefore not call back into
  /// the Service. Responses for one connection arrive in order only after
  /// the caller re-orders them (the daemon's event loop does, keyed on
  /// Request::conn_seq). For raw lines that fail to parse, `request` is a
  /// routing stub (seq/conn/conn_seq valid, task fields not).
  /// `pool` may be null: requests are then drained inline by route()/
  /// flush() — the serial reference the sharded runs must match.
  /// Throws std::invalid_argument for an unknown policy name, an unbounded
  /// cfg (an online stream has no task count to size cores from), or
  /// shards/producers < 1.
  Service(ServiceOptions opt, ThreadPool* pool,
          std::function<void(const Request&, Json)> done);
  ~Service();

  /// Route one parsed SUBMIT/QUERY to its island's shard. Flushes the
  /// producer's staged raw lines for that shard first, so a parsed request
  /// never overtakes an earlier raw one from the same producer.
  void route(Request req, int producer = 0);

  /// Stage one *raw* request line for shard routing; the shard's drain
  /// parses it (parse-on-shard). `island`/`op` are the peeked routing key
  /// (protocol.hpp peek_request) — callers must only pass lines whose peek
  /// was routable. seq/conn/conn_seq ride along for response ordering.
  /// Staged lines are pushed to the shard's queue in batches; call flush()
  /// at the end of an ingest chunk to bound latency.
  void route_raw(int island, Op op, std::string line, std::uint64_t seq,
                 int conn, std::uint64_t conn_seq, int producer = 0);

  /// Push this producer's staged batches to the shard queues (waiting
  /// while one is full) and schedule drains. Must be called from the
  /// producer's own thread.
  void flush(int producer = 0);

  /// Block until every *flushed* request has been processed (every shard's
  /// drain retired). Does not touch other producers' staging buffers —
  /// each producer flushes its own before a barrier (the daemon does).
  void drain_all();

  /// Service-wide statistics (drains first, so the snapshot is quiesced):
  /// uptime, totals, and per-shard requests/throughput plus p50/p99/mean/max
  /// replan latency from the obs runtime domain.
  Json stats(std::uint64_t seq);

  /// METRICS envelope: ok/op/seq plus `body`, the Prometheus text
  /// exposition from metrics_text() (drains first, like stats()).
  Json metrics(std::uint64_t seq);

  /// Prometheus text exposition (docs/service.md §METRICS): uptime and
  /// request totals, per-shard requests / queue length / backpressure
  /// stalls / inline and pooled drains, windowed p50/p99/p999 replan and
  /// end-to-end latency per shard, and the cumulative registry counters
  /// (governor mispredict/abort rates included). Callers must quiesce first
  /// (metrics() and the daemon's barrier do).
  std::string metrics_text() const;

  /// Seconds since construction.
  double uptime_s() const;

  struct IslandResult {
    int island = 0;
    std::string policy;
    std::uint64_t submits = 0;
    std::vector<Task> tasks;  ///< injected arrivals, injection order
    SimResult result;
  };

  /// Flush every producer's staging (callers must have quiesced producer
  /// threads), drain, then finalize every island (ascending id) and return
  /// the per-island simulation results. Ends the current runs; a later
  /// SUBMIT to a finalized island is answered with an error.
  std::vector<IslandResult> finalize_all();

  std::uint64_t requests_processed() const;
  int shards() const { return static_cast<int>(shards_.size()); }

 private:
  struct Island;
  struct Shard;
  struct Msg;
  struct Producer;

  /// The shard's obs cells, resolved by drain() once per invocation on the
  /// executing thread (successive drains may run on different threads, and
  /// each thread has its own cells).
  struct ShardCells {
    obs::DistCell* replan = nullptr;       ///< cumulative replan latency
    obs::WindowCell* replan_win = nullptr; ///< windowed replan latency
    obs::WindowCell* e2e_win = nullptr;    ///< windowed ingest→response
  };

  std::size_t shard_index(int island) const;
  Island& island_of(Shard& s, int island);
  /// Run the drain the caller owns (it set `scheduled`) inline or on the
  /// pool (service.cpp kInlineBatch, kInlinePending). `queued` is the
  /// queue length the caller's push left.
  void schedule_drain(Shard& s, std::size_t queued);
  /// Take and handle the queue while it fits in `budget` messages. Returns
  /// true once the drain has retired (it found the queue empty); false
  /// when the queue outgrew the budget, in which case the caller still
  /// owns the drain and must hand it on.
  bool drain(Shard& s, std::size_t budget);
  void flush_shard(Producer& p, std::size_t shard);
  /// Parse (if raw) and process one message in the shard's drain.
  void handle(Shard& s, Msg& m, const ShardCells& cells);
  void process(Shard& s, Request& req, const ShardCells& cells);

  ServiceOptions opt_;
  ThreadPool* pool_;
  std::function<void(const Request&, Json)> done_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::unique_ptr<Producer>> producers_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace sdem::service
