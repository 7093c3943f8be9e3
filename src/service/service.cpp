#include "service/service.hpp"

#include <algorithm>
#include <atomic>
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

/// Lines staged per shard before an automatic push to the shard's queue.
/// One lock round moves this many requests.
constexpr std::size_t kIngestBatch = 64;

/// The producer that takes a shard's drain runs it on its own thread while
/// the drain is short, since then a pool wake-up costs more than the work
/// (the paper's break-even rule applied to the daemon). Short means, first,
/// that the shard's queue holds at most kInlineBatch messages: a
/// closed-loop client pushes one per flush, while batch ingest (--replay,
/// piped stdin) pushes kIngestBatch and keeps the producer and the shards
/// overlapping on the pool.
constexpr std::size_t kInlineBatch = 4;
/// Second, the island the shard served last had at most this many pending
/// tasks. The §7 solve and the QUERY dump both grow with the pending set;
/// past it, the daemon's event loop running every commit itself would
/// serialize its connections' slow commits.
constexpr std::size_t kInlinePending = 16;

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

/// One memory island: its own policy instance and resumable simulation,
/// which also holds the island's id set (the duplicate check), arrival
/// count and whether the run is finalized. A live island's simulation
/// keeps no history: it records neither its tasks nor its executed
/// segments (`record` is false), so it holds its pending work, its plan
/// and its id set. Owned exclusively by one shard; only that shard's drain
/// touches it.
struct Service::Island {
  Island(const SystemConfig& cfg, std::unique_ptr<OnlinePolicy> pol,
         bool record)
      : policy(std::move(pol)), sim(cfg, *policy, cfg.num_cores, record) {}

  std::unique_ptr<OnlinePolicy> policy;
  StreamSim sim;
};

/// One queue entry: a request line to parse in the shard's drain, and its
/// routing stub — the routing key's op/island plus seq/conn/conn_seq and
/// the ingest stamp.
struct Service::Msg {
  Request req;
  std::string raw;
};

struct Service::Shard {
  explicit Shard(std::size_t capacity) : capacity(capacity) {
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
  std::vector<Msg> queue;  ///< the producer's pushes, in push order
  bool scheduled = false;  ///< a drain owns the shard
  /// Threads waiting on `wake`: the producer facing a full queue, and
  /// drain_all() waiting for the drain to retire.
  std::size_t waiters = 0;
  /// Waits the producer took on a full queue (the METRICS backpressure
  /// counter).
  std::uint64_t stalls = 0;
  std::condition_variable wake;

  /// The queue the drain took last. Only the drain touches it. Both
  /// vectors keep `capacity` reserved and trade buffers on every take, so
  /// a push never reallocates.
  std::vector<Msg> batch;

  std::atomic<std::uint64_t> processed{0};
  /// Drains run on the producer's thread and drains submitted to the pool
  /// (METRICS sdem_shard_drains_total).
  std::atomic<std::uint64_t> inline_drains{0};
  std::atomic<std::uint64_t> pool_drains{0};
  /// Pending tasks on the island the last SUBMIT or QUERY served: written
  /// by the drain, read by the producer choosing where the next drain runs.
  std::atomic<std::size_t> last_pending{0};

  std::map<int, std::unique_ptr<Island>> islands;

  /// Latency telemetry. Like `islands`, only the drain that owns the shard
  /// writes it; stats() and metrics_text() read it after drain_all().
  obs::DistCell replan;           ///< per-commit replan latency, all time
  obs::WindowCell replan_window;  ///< the same, over the last 8 s
  obs::WindowCell e2e_window;     ///< ingest stamp → response, last 8 s
};

Service::Service(ServiceOptions opt, ThreadPool* pool,
                 std::function<void(const Request&, Json)> done)
    : opt_(std::move(opt)), pool_(pool), done_(std::move(done)) {
  if (opt_.shards < 1) throw std::invalid_argument("service: shards < 1");
  if (opt_.producers != 1) {
    throw std::invalid_argument(
        "service: producers must be 1 (one ingest thread feeds every "
        "shard)");
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
    shards_.push_back(std::make_unique<Shard>(opt_.queue_capacity));
  }
  staged_.resize(shards_.size());
  start_ns_ = obs::now_ns();
}

Service::~Service() {
  try {
    // The producer is done by the time the Service dies; flushing its
    // leftovers here keeps late-staged requests from vanishing silently.
    flush();
    drain_all();
  } catch (...) {
    // Destruction must not throw; a worker exception is already surfaced
    // through the response callback of the request that raised it.
  }
}

const SystemConfig& Service::config() {
  static const SystemConfig cfg = SystemConfig::paper_default();
  return cfg;
}

std::size_t Service::shard_index(int island) const {
  return static_cast<std::size_t>(island) % shards_.size();
}

Service::Island& Service::island_of(Shard& s, int island) {
  auto it = s.islands.find(island);
  if (it == s.islands.end()) {
    it = s.islands
             .emplace(island, std::make_unique<Island>(
                                  config(), make_policy(opt_.policy),
                                  /*record=*/!opt_.eager))
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
    // Nothing else pushes while the producer drains: this handles what
    // the push queued and retires.
    drain(s);
    return;
  }
  s.pool_drains.fetch_add(1, std::memory_order_relaxed);
  pool_->submit([this, sp = &s] { drain(*sp); });
}

void Service::flush_shard(std::size_t shard) {
  std::vector<Msg>& staged = staged_[shard];
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

void Service::route_raw(int island, Op op, std::string line,
                        std::uint64_t seq, int conn, std::uint64_t conn_seq) {
  const std::size_t shard = shard_index(island);
  Msg m;
  m.req.op = op;
  m.req.island = island;
  m.req.seq = seq;
  m.req.conn = conn;
  m.req.conn_seq = conn_seq;
  m.req.ingest_ns = obs::now_ns();
  m.raw = std::move(line);
  staged_[shard].push_back(std::move(m));
  if (staged_[shard].size() >= kIngestBatch) flush_shard(shard);
}

void Service::flush() {
  for (std::size_t shard = 0; shard < staged_.size(); ++shard) {
    flush_shard(shard);
  }
}

void Service::drain(Shard& s) {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(s.mu);
      const bool retire = s.queue.empty();
      if (retire) {
        s.scheduled = false;
      } else {
        s.batch.swap(s.queue);
      }
      // The queue has room, or the drain retired: wake whoever waits.
      if (s.waiters > 0) s.wake.notify_all();
      if (retire) return;
    }
    for (Msg& m : s.batch) {
      handle(s, m);
      // Windowed end-to-end latency: ingest stamp to response done.
      const std::uint64_t now = obs::now_ns();
      s.e2e_window.add(static_cast<double>(now - m.req.ingest_ns), now);
    }
    s.processed.fetch_add(s.batch.size(), std::memory_order_release);
    s.batch.clear();  // frees the handled lines
  }
}

void Service::handle(Shard& s, Msg& m) {
  // Parse-on-shard: the ingest thread shipped the raw line; the DOM parse
  // and validation happen in the drain, which is off the ingest thread
  // unless the drain was short enough to run inline.
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
    // The routing key disagrees with the full parse (only possible for a
    // key the caller got wrong). Never touch an island another shard
    // owns — reject instead.
    done_(m.req,
          error_response(m.req.seq,
                         "misrouted request: peeked routing key does not "
                         "match the parsed line"));
    return;
  }
  m.req = std::move(p.request);
  process(s, m.req);
}

void Service::process(Shard& s, Request& r) {
  try {
    if (r.op == Op::kSubmit) {
      // A task whose fastest run is shorter than the clock's step at its
      // deadline would get pieces that round to empty: it would never run
      // and would hold its island's pending slot for good.
      const double s_up = config().core.max_speed();
      const double d = r.task.deadline;
      if (r.task.work > 0.0 && std::isfinite(s_up) &&
          r.task.work / s_up <
              std::nextafter(d, std::numeric_limits<double>::infinity()) - d) {
        done_(r, error_response(r.seq,
                                "task \"work\" at s_up runs shorter than "
                                "one ulp of \"deadline\""));
        return;
      }
      Island& isl = island_of(s, r.island);
      if (isl.sim.finalized()) {
        done_(r, error_response(r.seq,
                                "island " + std::to_string(r.island) +
                                    " already finalized"));
        return;
      }
      if (isl.sim.holds(r.task.id)) {
        done_(r, error_response(r.seq,
                                "duplicate task id " +
                                    std::to_string(r.task.id) + " on island " +
                                    std::to_string(r.island)));
        return;
      }
      if (isl.sim.full_at(r.task.release, kMaxPending)) {
        done_(r, error_response(r.seq,
                                "island " + std::to_string(r.island) +
                                    " holds " + std::to_string(kMaxPending) +
                                    " pending tasks, the most it takes"));
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
      Json resp = ok_response(Op::kSubmit, r.seq);
      resp.set("island", r.island);
      resp.set("id", r.task.id);
      // Advisory admission: the paper's standing assumption (filled speed
      // within s_up). The task is scheduled either way; a false here
      // predicts a deadline miss unless other slack appears.
      const double fs = r.task.filled_speed();
      resp.set("admitted", config().core.admits(fs));
      resp.set("filled_speed", fs);
      if (opt_.eager) {
        const std::uint64_t t0 = obs::now_ns();
        isl.sim.commit();
        const std::uint64_t dt = obs::now_ns() - t0;
        s.replan.add(static_cast<double>(dt));
        s.replan_window.add(static_cast<double>(dt), t0 + dt);
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
        s.replan.add(static_cast<double>(now - t_inject));
        s.replan_window.add(static_cast<double>(now - t_inject), now);
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
  drain_all();  // quiesce: the shards' cells are read with no writer left
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
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const Shard& s = *shards_[i];
    const std::uint64_t n = s.processed.load(std::memory_order_acquire);
    Json js = Json::object();
    js.set("shard", static_cast<std::uint64_t>(i));
    js.set("islands", static_cast<std::uint64_t>(s.islands.size()));
    js.set("requests", n);
    js.set("throughput_rps",
           uptime > 0.0 ? static_cast<double>(n) / uptime : 0.0);
    // p50/p99 replan latency from the shard's log2 histogram.
    obs::DistValue dist;
    dist.merge(s.replan);
    Json lat = Json::object();
    lat.set("count", dist.count);
    lat.set("p50_ns", dist.percentile(0.50));
    lat.set("p99_ns", dist.percentile(0.99));
    lat.set("mean_ns", dist.mean());
    lat.set("max_ns", dist.max);
    js.set("replan_latency", std::move(lat));
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
  // Windowed latency summaries: quantiles over the last 8 s, not since
  // startup — scrapes a minute apart see independent views (the cumulative
  // view stays in STATS).
  const std::uint64_t now = obs::now_ns();
  const auto summary = [&line](const std::string& metric, std::size_t i,
                               const obs::DistValue& w) {
    static constexpr double kQuantiles[] = {0.5, 0.99, 0.999};
    static const char* const kQuantileNames[] = {"0.5", "0.99", "0.999"};
    const std::string shard = std::to_string(i);
    for (std::size_t q = 0; q < 3; ++q) {
      line(metric + "{shard=\"" + shard + "\",quantile=\"" +
           kQuantileNames[q] + "\"} " +
           prom_num(w.percentile(kQuantiles[q]) * 1e-9));
    }
    line(metric + "_sum{shard=\"" + shard + "\"} " + prom_num(w.sum() * 1e-9));
    line(metric + "_count{shard=\"" + shard + "\"} " +
         prom_num(static_cast<double>(w.count)));
  };
  line("# TYPE sdem_replan_latency_seconds summary");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    summary("sdem_replan_latency_seconds", i,
            shards_[i]->replan_window.value(now));
  }
  line("# TYPE sdem_e2e_latency_seconds summary");
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    summary("sdem_e2e_latency_seconds", i, shards_[i]->e2e_window.value(now));
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
  drain_all();  // quiesce: the cells and the snapshot are read with no writer
  Json resp = ok_response(Op::kMetrics, seq);
  resp.set("uptime_s", uptime_s());
  resp.set("requests", requests_processed());
  resp.set("content_type", "text/plain; version=0.0.4");
  resp.set("body", metrics_text());
  return resp;
}

std::vector<Service::IslandResult> Service::finalize_all() {
  flush();
  drain_all();
  std::vector<IslandResult> out;
  for (const auto& s : shards_) {
    for (auto& [id, isl] : s->islands) {
      IslandResult r;
      r.island = id;
      r.policy = isl->policy->name();
      r.tasks = isl->sim.injected();
      r.result = isl->sim.finalize();
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
