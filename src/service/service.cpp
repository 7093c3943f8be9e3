#include "service/service.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "baseline/mbkp.hpp"
#include "baseline/simple_policies.hpp"
#include "core/online_sdem.hpp"
#include "obs/obs.hpp"
#include "obs/window.hpp"

namespace sdem::service {
namespace {

/// Lines staged per (producer, shard) before an automatic push to the
/// shard's queue. One lock round moves this many requests.
constexpr std::size_t kIngestBatch = 64;

/// A producer that takes a shard's drain runs it on its own thread while the
/// drain is short, since then a pool wake-up costs more than the work (the
/// paper's break-even rule applied to the daemon). Short means, first, that
/// the shard's queue holds at most kInlineBatch messages: a closed-loop
/// client pushes one per flush, while batch ingest (--replay, piped stdin,
/// service_throughput) pushes kIngestBatch and keeps its producer/shard
/// overlap on the pool. The inline drain also takes the queue only while
/// it fits this many messages in all, and hands the rest to the pool, so
/// other producers' traffic cannot hold a producer.
constexpr std::size_t kInlineBatch = 4;
/// Second, the island the shard served last had at most this many pending
/// tasks. The §7 solve and the QUERY dump both grow with the pending set;
/// past it, the daemon's event loop running every commit itself would
/// serialize its connections' slow commits.
constexpr std::size_t kInlinePending = 16;
/// A pool drain's budget: it runs until the queue is empty.
constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

/// The task ids one island has accepted (duplicate-submit detection): a
/// flat open-addressing table with linear probing, doubled at half load,
/// so an insert allocates only when the table doubles. It grows with the
/// accepted SUBMITs, never with the magnitude of an id.
class TaskIds {
 public:
  bool contains(int id) const {
    if (id == kEmpty) return has_empty_;
    if (slots_.empty()) return false;
    for (std::size_t i = home(id);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == id) return true;
      if (slots_[i] == kEmpty) return false;
    }
  }

  /// Adds an id that is not present yet.
  void insert(int id) {
    if (id == kEmpty) {
      has_empty_ = true;
      return;
    }
    if (2 * (size_ + 1) > slots_.size()) {
      std::vector<int> old(std::max<std::size_t>(16, 2 * slots_.size()),
                           kEmpty);
      old.swap(slots_);
      shift_ = 64 - std::countr_zero(slots_.size());
      for (const int v : old) {
        if (v != kEmpty) place(v);
      }
    }
    place(id);
    ++size_;
  }

 private:
  /// Marks a free slot. The protocol accepts |id| <= 2e9 only, but route()
  /// takes any Request, so this one id is kept beside the table.
  static constexpr int kEmpty = std::numeric_limits<int>::min();

  /// Fibonacci hashing: the top bits of id * 2^64/phi, so that sequential
  /// and strided ids alike spread over the table.
  std::size_t home(int id) const {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(id)) *
         0x9E3779B97F4A7C15ull) >>
        shift_);
  }

  void place(int id) {
    std::size_t i = home(id);
    while (slots_[i] != kEmpty) i = (i + 1) & (slots_.size() - 1);
    slots_[i] = id;
  }

  std::vector<int> slots_;  ///< power-of-two size, kEmpty where free
  std::size_t size_ = 0;
  int shift_ = 64;
  bool has_empty_ = false;  ///< whether id kEmpty was inserted
};

}  // namespace

std::unique_ptr<OnlinePolicy> make_policy(const std::string& name) {
  if (name == "sdem-on") return std::make_unique<SdemOnPolicy>();
  if (name == "sdem-on-eager") return std::make_unique<SdemOnPolicy>(false);
  if (name == "mbkp") return std::make_unique<MbkpPolicy>();
  if (name == "race") return std::make_unique<RaceToIdlePolicy>();
  if (name == "stretch") return std::make_unique<StretchPolicy>();
  if (name == "critical") return std::make_unique<CriticalSpeedPolicy>();
  return nullptr;
}

/// One memory island: its own policy instance and resumable simulation.
/// Owned exclusively by one shard; only that shard's drain touches it.
struct Service::Island {
  Island(const SystemConfig& cfg, std::unique_ptr<OnlinePolicy> pol)
      : policy(std::move(pol)), sim(cfg, *policy, cfg.num_cores) {}

  std::unique_ptr<OnlinePolicy> policy;
  StreamSim sim;
  TaskIds task_ids;  ///< duplicate-submit detection
  std::uint64_t submits = 0;
  bool finalized = false;
};

/// One queue entry: either an already-parsed request (raw.empty()) or a raw
/// line to parse in the shard's drain. For raw entries, `req` carries the
/// routing skeleton — peeked op/island plus seq/conn/conn_seq.
struct Service::Msg {
  Request req;
  std::string raw;
};

struct Service::Shard {
  Shard(int index, std::size_t capacity)
      : capacity(capacity),
        replan_metric("service/shard" + std::to_string(index) + "/replan_ns"),
        requests_metric("service/shard" + std::to_string(index) +
                        "/requests"),
        replan_window_metric("service/shard" + std::to_string(index) +
                             "/replan_window_ns"),
        e2e_window_metric("service/shard" + std::to_string(index) +
                          "/e2e_window_ns") {
    queue.reserve(capacity);
    batch.reserve(capacity);
  }

  /// The most messages `queue` holds.
  const std::size_t capacity;

  /// Guards the four fields below it. A queued message always has an
  /// owning drain: a push that finds `scheduled` clear sets it in the same
  /// critical section, and a drain clears it only when it finds the queue
  /// empty.
  std::mutex mu;
  std::vector<Msg> queue;  ///< every producer's pushes, in push order
  bool scheduled = false;  ///< a drain owns the shard
  /// Threads waiting on `wake`: producers facing a full queue, and
  /// drain_all() waiting for the drain to retire.
  std::size_t waiters = 0;
  /// Waits producers took on a full queue (the METRICS backpressure
  /// counter).
  std::uint64_t stalls = 0;
  std::condition_variable wake;

  /// The queue the drain took last. Only the drain touches it. Both
  /// vectors keep `capacity` reserved and trade buffers on every take, so
  /// a push never reallocates.
  std::vector<Msg> batch;

  std::atomic<std::uint64_t> processed{0};
  /// Drains run on a producer's thread and drains submitted to the pool
  /// (METRICS sdem_shard_drains_total). An inline drain that outgrows its
  /// budget and moves to the pool counts once in each.
  std::atomic<std::uint64_t> inline_drains{0};
  std::atomic<std::uint64_t> pool_drains{0};
  /// Pending tasks on the island the last SUBMIT or QUERY served: written
  /// by the drain, read by producers choosing where the next drain runs.
  std::atomic<std::size_t> last_pending{0};

  std::map<int, std::unique_ptr<Island>> islands;
  std::string replan_metric;
  std::string requests_metric;
  std::string replan_window_metric;
  std::string e2e_window_metric;
};

/// Producer-side staging: per-shard batches awaiting a push. Owned by
/// exactly one ingest thread; no synchronization.
struct Service::Producer {
  explicit Producer(std::size_t shards) : staged(shards) {}
  std::vector<std::vector<Msg>> staged;
};

Service::Service(ServiceOptions opt, ThreadPool* pool,
                 std::function<void(const Request&, Json)> done)
    : opt_(std::move(opt)), pool_(pool), done_(std::move(done)) {
  if (opt_.cfg.unbounded()) {
    throw std::invalid_argument(
        "service: cfg must bound num_cores (an online stream has no task "
        "count to size an unbounded system from)");
  }
  if (opt_.shards < 1) throw std::invalid_argument("service: shards < 1");
  if (opt_.producers < 1) {
    throw std::invalid_argument("service: producers < 1");
  }
  if (opt_.queue_capacity < 1) {
    throw std::invalid_argument("service: queue_capacity < 1");
  }
  if (make_policy(opt_.policy) == nullptr) {
    throw std::invalid_argument("service: unknown policy \"" + opt_.policy +
                                "\"");
  }
  shards_.reserve(static_cast<std::size_t>(opt_.shards));
  for (int i = 0; i < opt_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        i, opt_.queue_capacity * static_cast<std::size_t>(opt_.producers)));
  }
  producers_.reserve(static_cast<std::size_t>(opt_.producers));
  for (int p = 0; p < opt_.producers; ++p) {
    producers_.push_back(std::make_unique<Producer>(shards_.size()));
  }
  start_ns_ = obs::now_ns();
}

Service::~Service() {
  try {
    // Producer threads are gone by the time the Service dies; flushing
    // their leftovers here is safe and keeps late-staged requests from
    // vanishing silently.
    for (std::size_t p = 0; p < producers_.size(); ++p) {
      flush(static_cast<int>(p));
    }
    drain_all();
  } catch (...) {
    // Destruction must not throw; a worker exception is already surfaced
    // through the response callback of the request that raised it.
  }
}

std::size_t Service::shard_index(int island) const {
  return static_cast<std::size_t>(island) % shards_.size();
}

Service::Island& Service::island_of(Shard& s, int island) {
  auto it = s.islands.find(island);
  if (it == s.islands.end()) {
    it = s.islands
             .emplace(island, std::make_unique<Island>(
                                  opt_.cfg, make_policy(opt_.policy)))
             .first;
  }
  return *it->second;
}

void Service::schedule_drain(Shard& s, std::size_t queued) {
  // The caller set `scheduled`, so it owns the drain; only which thread runs
  // it is chosen here, never the order in which messages are handled.
  if (pool_ == nullptr ||
      (queued <= kInlineBatch &&
       s.last_pending.load(std::memory_order_relaxed) <= kInlinePending)) {
    s.inline_drains.fetch_add(1, std::memory_order_relaxed);
    // Without a pool there is nobody to hand work to: drain it all here.
    if (drain(s, pool_ == nullptr ? kUnbounded : kInlineBatch)) return;
    // Work remains past the budget: the drain is still ours (`scheduled`
    // stays set), so the pool task takes it over without a retire.
  }
  s.pool_drains.fetch_add(1, std::memory_order_relaxed);
  pool_->submit([this, sp = &s] { drain(*sp, kUnbounded); });
}

void Service::flush_shard(Producer& p, std::size_t shard) {
  std::vector<Msg>& staged = p.staged[shard];
  Shard& s = *shards_[shard];
  std::size_t next = 0;
  while (next < staged.size()) {
    std::size_t queued = 0;
    bool own = false;
    {
      std::unique_lock<std::mutex> lock(s.mu);
      // A full queue is not empty, so its drain exists and wakes us when it
      // takes the queue.
      if (s.queue.size() == s.capacity) {
        ++s.stalls;
        ++s.waiters;
        s.wake.wait(lock, [&s] { return s.queue.size() < s.capacity; });
        --s.waiters;
      }
      while (next < staged.size() && s.queue.size() < s.capacity) {
        s.queue.push_back(std::move(staged[next++]));
      }
      queued = s.queue.size();
      own = !s.scheduled;
      s.scheduled = true;
    }
    if (own) schedule_drain(s, queued);
  }
  staged.clear();
}

void Service::route(Request req, int producer) {
  if (req.op != Op::kSubmit && req.op != Op::kQuery) {
    throw std::logic_error(
        "service: only SUBMIT/QUERY route to shards (STATS/SHUTDOWN are "
        "service-wide)");
  }
  Producer& p = *producers_[static_cast<std::size_t>(producer)];
  const std::size_t shard = shard_index(req.island);
  // Keep FIFO order with any raw lines this producer already staged for
  // the shard: stage the parsed request behind them and flush the batch.
  Msg m;
  m.req = std::move(req);
  if (m.req.ingest_ns == 0) m.req.ingest_ns = obs::now_ns();
  p.staged[shard].push_back(std::move(m));
  flush_shard(p, shard);
}

void Service::route_raw(int island, Op op, std::string line,
                        std::uint64_t seq, int conn, std::uint64_t conn_seq,
                        int producer) {
  Producer& p = *producers_[static_cast<std::size_t>(producer)];
  const std::size_t shard = shard_index(island);
  Msg m;
  m.req.op = op;
  m.req.island = island;
  m.req.seq = seq;
  m.req.conn = conn;
  m.req.conn_seq = conn_seq;
  m.req.ingest_ns = obs::now_ns();
  m.raw = std::move(line);
  p.staged[shard].push_back(std::move(m));
  if (p.staged[shard].size() >= kIngestBatch) flush_shard(p, shard);
}

void Service::flush(int producer) {
  Producer& p = *producers_[static_cast<std::size_t>(producer)];
  for (std::size_t shard = 0; shard < p.staged.size(); ++shard) {
    flush_shard(p, shard);
  }
}

bool Service::drain(Shard& s, std::size_t budget) {
  // Cells live in the calling thread's obs shard — resolve per drain, not
  // per service, because successive drains may land on different threads.
  ShardCells cells;
  cells.replan =
      obs::dist_cell(s.replan_metric.c_str(), obs::Domain::kRuntime);
  cells.replan_win = obs::Registry::instance().window_cell(
      s.replan_window_metric.c_str(), obs::WindowSpec{});
  cells.e2e_win = obs::Registry::instance().window_cell(
      s.e2e_window_metric.c_str(), obs::WindowSpec{});
  std::uint64_t* req_count =
      obs::counter_cell(s.requests_metric.c_str(), obs::Domain::kRuntime);
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(s.mu);
      // Past the budget: return still owning the drain.
      if (s.queue.size() > budget) return false;
      const bool retire = s.queue.empty();
      if (retire) {
        s.scheduled = false;
      } else {
        s.batch.swap(s.queue);
      }
      // The queue has room, or the drain retired: wake whoever waits.
      if (s.waiters > 0) s.wake.notify_all();
      if (retire) return true;
    }
    budget -= s.batch.size();
    for (Msg& m : s.batch) {
      handle(s, m, cells);
      // Windowed end-to-end latency: ingest stamp to response done.
      if (m.req.ingest_ns != 0) {
        const std::uint64_t now = obs::now_ns();
        cells.e2e_win->add(static_cast<double>(now - m.req.ingest_ns), now);
      }
    }
    s.processed.fetch_add(s.batch.size(), std::memory_order_release);
    *req_count += s.batch.size();
    s.batch.clear();  // frees the handled lines
  }
}

void Service::handle(Shard& s, Msg& m, const ShardCells& cells) {
  if (!m.raw.empty()) {
    // Parse-on-shard: the ingest thread shipped the raw line; the DOM
    // parse and validation happen in the drain, which is off the ingest
    // thread unless the drain was short enough to run inline.
    Parsed p = parse_request(m.raw);
    if (!p.ok) {
      done_(m.req, error_response(m.req.seq, p.error));
      return;
    }
    p.request.seq = m.req.seq;
    p.request.conn = m.req.conn;
    p.request.conn_seq = m.req.conn_seq;
    p.request.ingest_ns = m.req.ingest_ns;
    if ((p.request.op != Op::kSubmit && p.request.op != Op::kQuery) ||
        shard_index(p.request.island) != shard_index(m.req.island)) {
      // The peek that routed the line disagrees with the full parse (only
      // possible for crafted routing keys the caller mis-peeked). Never
      // touch an island another shard owns — reject instead.
      done_(m.req,
            error_response(m.req.seq,
                           "misrouted request: peeked routing key does not "
                           "match the parsed line"));
      return;
    }
    m.req = std::move(p.request);
  }
  process(s, m.req, cells);
}

void Service::process(Shard& s, Request& r, const ShardCells& cells) {
  try {
    if (r.op == Op::kSubmit) {
      Island& isl = island_of(s, r.island);
      if (isl.finalized) {
        done_(r, error_response(r.seq,
                                "island " + std::to_string(r.island) +
                                    " already finalized"));
        return;
      }
      if (isl.task_ids.contains(r.task.id)) {
        done_(r, error_response(r.seq,
                                "duplicate task id " +
                                    std::to_string(r.task.id) + " on island " +
                                    std::to_string(r.island)));
        return;
      }
      const int replans_before = isl.sim.replans();
      const std::uint64_t t_inject = obs::now_ns();
      try {
        isl.sim.inject_arrival(r.task);
      } catch (const std::invalid_argument& e) {
        done_(r, error_response(r.seq, e.what()));
        return;
      }
      isl.task_ids.insert(r.task.id);
      ++isl.submits;
      Json resp = ok_response(Op::kSubmit, r.seq);
      resp.set("island", r.island);
      resp.set("id", r.task.id);
      // Advisory admission: the paper's standing assumption (filled speed
      // within s_up). The task is scheduled either way; a false here
      // predicts a deadline miss unless other slack appears.
      const double s_up = opt_.cfg.core.s_up;
      const double fs = r.task.filled_speed();
      resp.set("admitted", s_up <= 0.0 || fs <= s_up * (1.0 + 1e-12));
      resp.set("filled_speed", fs);
      if (opt_.eager) {
        const std::uint64_t t0 = obs::now_ns();
        isl.sim.commit();
        const std::uint64_t dt = obs::now_ns() - t0;
        cells.replan->add(static_cast<double>(dt));
        cells.replan_win->add(static_cast<double>(dt), t0 + dt);
        resp.set("pending", static_cast<std::uint64_t>(isl.sim.pending().size()));
        resp.set("replans", isl.sim.replans());
        double plan_end = isl.sim.plan_from();
        for (const auto& seg : isl.sim.current_plan()) {
          plan_end = std::max(plan_end, seg.end);
        }
        resp.set("plan_end", plan_end);
      } else if (isl.sim.replans() != replans_before) {
        // Lazy mode commits inside inject_arrival when the release
        // advances; attribute that latency too so replay/throughput runs
        // still populate the p50/p99 histograms.
        const std::uint64_t now = obs::now_ns();
        cells.replan->add(static_cast<double>(now - t_inject));
        cells.replan_win->add(static_cast<double>(now - t_inject), now);
      }
      s.last_pending.store(isl.sim.pending().size(),
                           std::memory_order_relaxed);
      done_(r, std::move(resp));
      return;
    }
    // QUERY: read-only view of an existing island.
    const auto it = s.islands.find(r.island);
    if (it == s.islands.end()) {
      done_(r, error_response(
                   r.seq, "unknown island " + std::to_string(r.island)));
      return;
    }
    const Island& isl = *it->second;
    s.last_pending.store(isl.sim.pending().size(), std::memory_order_relaxed);
    Json resp = ok_response(Op::kQuery, r.seq);
    resp.set("island", r.island);
    resp.set("policy", isl.policy->name());
    resp.set("now", isl.sim.now());
    resp.set("arrivals", static_cast<std::uint64_t>(isl.sim.arrivals()));
    resp.set("pending", static_cast<std::uint64_t>(isl.sim.pending().size()));
    resp.set("replans", isl.sim.replans());
    resp.set("plan_from", isl.sim.plan_from());
    Json plan = Json::array();
    for (const auto& seg : isl.sim.current_plan()) {
      Json js = Json::object();
      js.set("task", seg.task_id);
      js.set("core", seg.core);
      js.set("start", seg.start);
      js.set("end", seg.end);
      js.set("speed", seg.speed);
      plan.push_back(std::move(js));
    }
    resp.set("plan", std::move(plan));
    done_(r, std::move(resp));
  } catch (const std::exception& e) {
    done_(r, error_response(r.seq, std::string("internal: ") + e.what()));
  }
}

void Service::drain_all() {
  // A queued message always has an owning drain, so once a shard's drain
  // has retired, everything flushed to it has been handled.
  for (const auto& s : shards_) {
    std::unique_lock<std::mutex> lock(s->mu);
    ++s->waiters;
    s->wake.wait(lock, [&s] { return !s->scheduled; });
    --s->waiters;
  }
  // Retire the drain tasks themselves (and rethrow anything fatal).
  if (pool_ != nullptr) pool_->wait_idle();
}

std::uint64_t Service::requests_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) {
    total += s->processed.load(std::memory_order_acquire);
  }
  return total;
}

double Service::uptime_s() const {
  return static_cast<double>(obs::now_ns() - start_ns_) / 1e9;
}

Json Service::stats(std::uint64_t seq) {
  drain_all();  // quiesce: obs snapshots require no concurrent writers
  const double uptime = uptime_s();
  Json resp = ok_response(Op::kStats, seq);
  resp.set("policy", opt_.policy);
  resp.set("eager", opt_.eager);
  resp.set("uptime_s", uptime);
  resp.set("requests", requests_processed());
  std::uint64_t islands = 0;
  for (const auto& s : shards_) islands += s->islands.size();
  resp.set("islands", islands);

  Json shard_arr = Json::array();
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    const std::uint64_t n = s.processed.load(std::memory_order_acquire);
    Json js = Json::object();
    js.set("shard", static_cast<std::uint64_t>(i));
    js.set("islands", static_cast<std::uint64_t>(s.islands.size()));
    js.set("requests", n);
    js.set("throughput_rps",
           uptime > 0.0 ? static_cast<double>(n) / uptime : 0.0);
    // p50/p99 replan latency from the runtime-domain log2 histogram.
    for (const auto& [name, dist] : snap.runtime_dists) {
      if (name != s.replan_metric) continue;
      Json lat = Json::object();
      lat.set("count", dist.count);
      lat.set("p50_ns", dist.percentile(0.50));
      lat.set("p99_ns", dist.percentile(0.99));
      lat.set("mean_ns", dist.mean());
      lat.set("max_ns", dist.max);
      js.set("replan_latency", std::move(lat));
      break;
    }
    shard_arr.push_back(std::move(js));
  }
  resp.set("shards", std::move(shard_arr));
  return resp;
}

namespace {

/// Compact numeric literal for the exposition (the JSON number rule, so
/// scraped values parse back exactly).
std::string prom_num(double v) { return Json(v).dump(); }

std::string shard_label(std::size_t i) {
  return "{shard=\"" + std::to_string(i) + "\"}";
}

}  // namespace

std::string Service::metrics_text() const {
  std::string out;
  out.reserve(4096);
  const auto line = [&out](const std::string& s) {
    out += s;
    out += '\n';
  };
  line("# sdem_service metrics (Prometheus text exposition v0.0.4; "
       "docs/service.md#metrics)");
  line("# TYPE sdem_uptime_seconds gauge");
  line("sdem_uptime_seconds " + prom_num(uptime_s()));
  line("# TYPE sdem_requests_total counter");
  line("sdem_requests_total " +
       prom_num(static_cast<double>(requests_processed())));
  std::uint64_t islands = 0;
  for (const auto& s : shards_) islands += s->islands.size();
  line("# TYPE sdem_islands gauge");
  line("sdem_islands " + prom_num(static_cast<double>(islands)));
  line("# TYPE sdem_shard_requests_total counter");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    line("sdem_shard_requests_total" + shard_label(i) + " " +
         prom_num(static_cast<double>(
             shards_[i]->processed.load(std::memory_order_acquire))));
  }
  line("# TYPE sdem_ring_occupancy gauge");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    line("sdem_ring_occupancy" + shard_label(i) + " " +
         prom_num(static_cast<double>(shards_[i]->queue.size())));
  }
  line("# TYPE sdem_backpressure_stalls_total counter");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::lock_guard<std::mutex> lock(shards_[i]->mu);
    line("sdem_backpressure_stalls_total" + shard_label(i) + " " +
         prom_num(static_cast<double>(shards_[i]->stalls)));
  }
  line("# TYPE sdem_shard_drains_total counter");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::string prefix = "sdem_shard_drains_total{shard=\"" +
                               std::to_string(i) + "\",where=\"";
    line(prefix + "inline\"} " +
         prom_num(static_cast<double>(
             shards_[i]->inline_drains.load(std::memory_order_relaxed))));
    line(prefix + "pool\"} " +
         prom_num(static_cast<double>(
             shards_[i]->pool_drains.load(std::memory_order_relaxed))));
  }
  // Windowed latency summaries: quantiles over the last
  // WindowSpec{}.window_ns() seconds, not since startup — scrapes a minute
  // apart see independent views (the cumulative view stays in STATS).
  const auto windows = obs::Registry::instance().window_values(obs::now_ns());
  const auto find_window =
      [&windows](const std::string& name) -> const obs::WindowValue* {
    for (const auto& [n, w] : windows) {
      if (n == name) return &w;
    }
    return nullptr;
  };
  struct Family {
    const char* metric;
    const std::string Shard::* cell_name;
  };
  const Family families[] = {
      {"sdem_replan_latency_seconds", &Shard::replan_window_metric},
      {"sdem_e2e_latency_seconds", &Shard::e2e_window_metric},
  };
  static constexpr double kQuantiles[] = {0.5, 0.99, 0.999};
  static const char* const kQuantileNames[] = {"0.5", "0.99", "0.999"};
  for (const Family& fam : families) {
    line(std::string("# TYPE ") + fam.metric + " summary");
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const obs::WindowValue* w = find_window(*shards_[i] .* fam.cell_name);
      const std::string shard = std::to_string(i);
      for (std::size_t q = 0; q < 3; ++q) {
        const double v_ns = w != nullptr ? w->percentile(kQuantiles[q]) : 0.0;
        line(std::string(fam.metric) + "{shard=\"" + shard +
             "\",quantile=\"" + kQuantileNames[q] + "\"} " +
             prom_num(v_ns * 1e-9));
      }
      line(std::string(fam.metric) + "_sum{shard=\"" + shard + "\"} " +
           prom_num((w != nullptr ? w->sum() : 0.0) * 1e-9));
      line(std::string(fam.metric) + "_count{shard=\"" + shard + "\"} " +
           prom_num(static_cast<double>(w != nullptr ? w->count : 0)));
    }
  }
  // Cumulative registry counters. The governor/ladder pair gets stable
  // first-class names; everything else is scrapable via the generic family.
  const obs::Snapshot snap = obs::Registry::instance().snapshot();
  const auto counter_of = [&snap](const std::string& name) {
    const std::uint64_t* v = snap.counter(name);
    return v != nullptr ? static_cast<double>(*v) : 0.0;
  };
  line("# TYPE sdem_governor_ladder_aborts_total counter");
  line("sdem_governor_ladder_aborts_total " +
       prom_num(counter_of("energy/ladder_aborts")));
  line("# TYPE sdem_governor_ladder_mispredicts_total counter");
  line("sdem_governor_ladder_mispredicts_total " +
       prom_num(counter_of("energy/ladder_mispredicts")));
  line("# TYPE sdem_counter_total counter");
  for (const auto& [name, v] : snap.counters) {
    line("sdem_counter_total{name=\"" + name + "\"} " +
         prom_num(static_cast<double>(v)));
  }
  for (const auto& [name, v] : snap.runtime_counters) {
    line("sdem_counter_total{name=\"" + name + "\"} " +
         prom_num(static_cast<double>(v)));
  }
  return out;
}

Json Service::metrics(std::uint64_t seq) {
  drain_all();  // quiesce: window/snapshot reads require no writers
  Json resp = ok_response(Op::kMetrics, seq);
  resp.set("uptime_s", uptime_s());
  resp.set("requests", requests_processed());
  resp.set("content_type", "text/plain; version=0.0.4");
  resp.set("body", metrics_text());
  return resp;
}

std::vector<Service::IslandResult> Service::finalize_all() {
  for (std::size_t p = 0; p < producers_.size(); ++p) {
    flush(static_cast<int>(p));
  }
  drain_all();
  std::vector<IslandResult> out;
  for (const auto& s : shards_) {
    for (auto& [id, isl] : s->islands) {
      IslandResult r;
      r.island = id;
      r.policy = isl->policy->name();
      r.submits = isl->submits;
      r.tasks = isl->sim.injected();
      r.result = isl->sim.finalize();
      isl->finalized = true;
      out.push_back(std::move(r));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const IslandResult& a, const IslandResult& b) {
              return a.island < b.island;
            });
  return out;
}

}  // namespace sdem::service
