// perfbench_harness — the compiled half of the benchmark (perfbench/run.py
// is the entry point). Subcommands, each printing one JSON object on
// stdout:
//
//   serve --shape S --seed N --service BIN --trace 0|1 --launches K
//         [--measured M] [--spans PATH]
//       Closed-loop load against sdem_service over TCP (serve.cpp), the
//       output checks, and with --trace 1 the in-process layer passes
//       (layers.cpp).
//   sweep --experiments a,b,... --jobs J --out-dir DIR [--spans PATH]
//       The named registered experiments in-process, once untraced and
//       once with one span and counter snapshot each (the traced
//       paper-sweep).
//   wake
//       Host-noise probe: p99 lateness of a thread sleeping 0.2 ms.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "sched/energy.hpp"
#include "sched/trace_io.hpp"
#include "serve.hpp"
#include "service/service.hpp"
#include "sim/event_sim.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace perfbench;
using sdem::Json;

/// Workers for the per-island solver passes (the verifying simulate()
/// pass and the traced and plain StreamSim passes). Islands are
/// independent; four keeps serve-backlog's checks short.
constexpr int kSolverThreads = 4;

struct Verdict {
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::size_t submitted = 0;
  std::size_t on_time = 0;
  std::size_t misses = 0;
  int starving_islands = 0;  ///< islands with unfinished work at the end
  double energy_j = 0.0;
  double ontime_mcycles = 0.0;
};

bool same_arrivals(const std::vector<sdem::Task>& a,
                   const std::vector<sdem::Task>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].release != b[i].release ||
        a[i].deadline != b[i].deadline || a[i].work != b[i].work)
      return false;
  }
  return true;
}

std::string island_surface(const sdem::SimResult& r) {
  char head[160];
  std::snprintf(head, sizeof(head), "replans=%d misses=%d unfinished=%d\n",
                r.replans, r.deadline_misses, r.unfinished);
  return std::string(head) + sdem::schedule_to_csv(r.schedule);
}

/// Replay every island through Service in replay mode, require it to equal
/// batch simulate() on the same arrivals, then count on-time tasks from
/// the schedule and check that count against SimResult::deadline_misses.
Verdict verify(const Stream& stream) {
  using namespace sdem::service;
  Verdict v;
  const auto fail = [&](const std::string& why) {
    ++v.failed;
    if (v.errors.size() < 8) v.errors.push_back(why);
  };
  ServiceOptions opt;
  opt.shards = 4;
  opt.eager = false;
  auto pool = std::make_unique<sdem::ThreadPool>(opt.shards);
  std::mutex mu;
  std::vector<std::string> replay_errors;
  Service svc(opt, pool.get(), [&](const sdem::service::Request&, Json resp) {
    const Json* ok = resp.find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
      std::lock_guard<std::mutex> lock(mu);
      replay_errors.push_back(resp.dump(0));
    }
  });
  std::uint64_t seq = 0;
  for (const auto& conn : stream.conn) {
    for (const StreamRequest& r : conn) {
      if (r.query) continue;
      const Peeked pk = peek_request(r.line);
      svc.route_raw(pk.island, pk.op, r.line, seq, 0, seq);
      ++seq;
    }
  }
  const std::vector<Service::IslandResult> islands = svc.finalize_all();
  for (const std::string& e : replay_errors) fail("replay error: " + e);
  if (islands.size() != stream.island_tasks.size())
    fail("replay produced " + std::to_string(islands.size()) + " islands");

  const sdem::SystemConfig cfg = sdem::SystemConfig::paper_default();
  std::vector<sdem::SimResult> batch(islands.size());
  {
    sdem::ThreadPool sim_pool(kSolverThreads);
    sim_pool.parallel_for(islands.size(), [&](std::size_t i) {
      const auto policy = make_policy("sdem-on");
      batch[i] = sdem::simulate(sdem::TaskSet(islands[i].tasks), cfg, *policy);
    });
  }
  for (std::size_t i = 0; i < islands.size(); ++i) {
    const Service::IslandResult& isl = islands[i];
    const sdem::SimResult& got = isl.result;
    if (island_surface(got) != island_surface(batch[i]) ||
        got.horizon_lo != batch[i].horizon_lo ||
        got.horizon_hi != batch[i].horizon_hi) {
      fail("island " + std::to_string(isl.island) +
           ": replay differs from batch simulate()");
      continue;
    }
    // The benchmark's own on-time count, from the executed segments.
    std::map<int, std::pair<double, double>> done;  // id -> (work, finish)
    for (const sdem::Segment& s : got.schedule.segments()) {
      auto& d = done[s.task_id];
      d.first += s.work();
      d.second = std::max(d.second, s.end);
    }
    std::size_t on_time = 0;
    for (const sdem::Task& t : isl.tasks) {
      const auto it = done.find(t.id);
      const bool finished =
          it != done.end() &&
          it->second.first >= t.work - 1e-9 * std::max(1.0, t.work);
      if (finished &&
          it->second.second <= t.deadline + 1e-9 * std::max(1.0, t.deadline)) {
        ++on_time;
        v.ontime_mcycles += t.work;
      }
    }
    if (on_time + static_cast<std::size_t>(got.deadline_misses) !=
        isl.tasks.size()) {
      fail("island " + std::to_string(isl.island) + ": on-time count " +
           std::to_string(on_time) + " + misses " +
           std::to_string(got.deadline_misses) + " != " +
           std::to_string(isl.tasks.size()) + " tasks");
    }
    if (!same_arrivals(isl.tasks,
                       stream.island_tasks[static_cast<std::size_t>(isl.island)]))
      fail("island " + std::to_string(isl.island) + ": arrivals differ");
    v.submitted += isl.tasks.size();
    v.on_time += on_time;
    v.misses += static_cast<std::size_t>(got.deadline_misses);
    v.starving_islands += got.unfinished > 0 ? 1 : 0;
    v.energy_j += sdem::compute_energy(got.schedule, cfg).system_total();
  }
  return v;
}

/// Segments of the measured phase: short enough (~10 ms on serve-paper)
/// that many of them fall between the hypervisor's steal bursts.
constexpr int kSegments = 400;

/// The least share of the measured requests the calm segments keep.
constexpr double kCalmFloor = 0.05;

/// Latency samples and totals pooled over some segments.
struct Pool {
  std::vector<double> submit, query;
  std::size_t answered = 0;
  double wall_s = 0.0, steal_s = 0.0;

  void add(const Segment& s) {
    submit.insert(submit.end(), s.submit_ns.begin(), s.submit_ns.end());
    query.insert(query.end(), s.query_ns.begin(), s.query_ns.end());
    answered += s.answered;
    wall_s += s.wall_s;
    steal_s += s.steal_s;
  }
  double rate() const {
    return wall_s > 0 ? static_cast<double>(answered) / wall_s : 0.0;
  }
  double steal_share() const {
    const double cpus = static_cast<double>(std::thread::hardware_concurrency());
    return wall_s > 0 ? steal_s / (wall_s * cpus) : 0.0;
  }
};

/// The segments during which the hypervisor stole least: every segment
/// whose steal per second is at most the lowest level that still keeps
/// kCalmFloor of the requests, ties included. On a host with no steal that
/// is every segment; under steal bursts it is the segments that read none,
/// scattered through the stream, so every part of it is sampled. A closed
/// loop stalls whenever one of its threads' CPUs is stolen, so a few per
/// cent of steal can cut the request rate by a third. Steal is measured
/// outside the program: the selection never looks at its latencies.
Pool calm_segments(const std::vector<Segment>& segs) {
  const auto share = [](const Segment& s) {
    return s.wall_s > 0 ? s.steal_s / s.wall_s : 0.0;
  };
  std::vector<const Segment*> order;
  std::size_t total = 0;
  for (const Segment& s : segs) {
    order.push_back(&s);
    total += s.answered;
  }
  std::sort(order.begin(), order.end(),
            [&](const Segment* a, const Segment* b) {
              return share(*a) < share(*b);
            });
  double level = 0.0;
  std::size_t kept = 0;
  for (const Segment* s : order) {
    level = share(*s);
    kept += s->answered;
    if (static_cast<double>(kept) >= kCalmFloor * static_cast<double>(total))
      break;
  }
  Pool p;
  for (const Segment& s : segs)
    if (share(s) <= level) p.add(s);
  return p;
}

struct Out {
  Json metrics = Json::object();
  Json info = Json::object();
  std::size_t attempted = 0;
  std::size_t failed = 0;      ///< operations that failed
  std::size_t mismatches = 0;  ///< output checks that failed
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const char* unit) {
    Json m = Json::object();
    m.set("value", value);
    m.set("unit", unit);
    metrics.set(name, std::move(m));
  }
  void absorb(std::size_t f, const std::vector<std::string>& errs) {
    failed += f;
    note(errs);
  }
  void mismatch(std::size_t m, const std::vector<std::string>& errs) {
    mismatches += m;
    note(errs);
  }
  void note(const std::vector<std::string>& errs) {
    for (const std::string& e : errs)
      if (errors.size() < 12) errors.push_back(e);
  }
  int print() const {
    Json doc = Json::object();
    doc.set("attempted", static_cast<std::uint64_t>(attempted));
    doc.set("failed", static_cast<std::uint64_t>(failed));
    doc.set("mismatches", static_cast<std::uint64_t>(mismatches));
    Json errs = Json::array();
    for (const std::string& e : errors) errs.push_back(e);
    doc.set("errors", std::move(errs));
    doc.set("metrics", metrics);
    doc.set("info", info);
    const std::string s = doc.dump(0);
    std::printf("%s\n", s.c_str());
    return 0;
  }
};

double ms(double ns) { return ns * 1e-6; }
double us(double ns) { return ns * 1e-3; }

int run_serve(const std::string& shape_name, std::uint64_t seed,
              const std::string& service_bin, bool trace, int launches,
              int measured_launches, const std::string& spans_path) {
  const Shape shape = shape_named(shape_name);
  const Stream stream = make_stream(shape, seed);  // before any timing
  Out out;
  Json streams = Json::array();
  for (int c = 0; c < Stream::kConns; ++c) {
    char digest[32];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(stream.digest[c]));
    Json s = Json::object();
    s.set("conn", c);
    s.set("digest", digest);
    s.set("submits", static_cast<std::uint64_t>(stream.submits[c]));
    s.set("queries", static_cast<std::uint64_t>(stream.queries[c]));
    s.set("warmup", static_cast<std::uint64_t>(stream.warm[c]));
    streams.push_back(std::move(s));
  }
  out.info.set("streams", std::move(streams));

  // Set-up-only launches first, the measured launches last. Every launch
  // gives a set-up sample; the measured ones also replay the whole stream.
  std::vector<double> setups, setup_cpus, cpus;
  std::vector<Segment> segments;  // of every measured launch, in order
  double peak_rss_mb = 0.0;
  std::size_t rescued = 0;
  const int n_launch = trace ? 1 : std::max(1, launches);
  const int n_measured =
      trace ? 1 : std::clamp(measured_launches, 1, n_launch);
  for (int k = 0; k < n_launch; ++k) {
    const bool measure = k >= n_launch - n_measured;
    ServeRun run = serve_once(service_bin, stream, measure ? kSegments : 0);
    std::vector<std::string> errs = run.errors;
    // A bad response (error envelope, wrong echo, out of order) is a
    // failed request.
    const std::size_t bad = check_responses(stream, run, errs);
    out.attempted += run.attempted;
    out.absorb(run.failed + bad, errs);
    rescued += run.rescued;
    setups.push_back(run.setup_s);
    setup_cpus.push_back(run.setup_cpu_s);
    if (measure) {
      segments.insert(segments.end(), run.segments.begin(),
                      run.segments.end());
      cpus.push_back(run.cpu_s);
      peak_rss_mb = std::max(peak_rss_mb, run.peak_rss_mb);
    }
  }
  const Verdict v = verify(stream);
  out.mismatch(v.failed, v.errors);
  Json setup_samples = Json::array();
  for (double s : setups) setup_samples.push_back(s);
  out.info.set("setup_samples_s", std::move(setup_samples));
  Json setup_cpu_samples = Json::array();
  for (double s : setup_cpus) setup_cpu_samples.push_back(s);
  out.info.set("setup_cpu_samples_s", std::move(setup_cpu_samples));
  // Round trips and the rate come from the calm segments of all measured
  // launches; sweep_s scales that rate back to one whole stream. cpu_s is
  // not selected: it is the median launch's whole-stream CPU.
  Pool all;
  for (const Segment& seg : segments) all.add(seg);
  Pool calm = calm_segments(segments);
  const double answered = static_cast<double>(all.answered) / n_measured;
  const double submit_p99 = ms(percentile(calm.submit, 0.99));
  const double query_p99 = ms(percentile(calm.query, 0.99));
  out.info.set("submit_samples", static_cast<std::uint64_t>(calm.submit.size()));
  out.info.set("query_samples", static_cast<std::uint64_t>(calm.query.size()));
  out.info.set("submit_p99_ms", submit_p99);
  out.info.set("query_p99_ms", query_p99);
  out.info.set("steal_share", all.steal_share());
  out.info.set("calm_steal_share", calm.steal_share());
  out.info.set("calm_share", all.answered > 0
                                 ? static_cast<double>(calm.answered) /
                                       static_cast<double>(all.answered)
                                 : 0.0);
  out.info.set("tasks", static_cast<std::uint64_t>(v.submitted));
  out.info.set("on_time", static_cast<std::uint64_t>(v.on_time));
  out.info.set("deadline_misses", static_cast<std::uint64_t>(v.misses));
  out.info.set("starving_islands", v.starving_islands);
  out.info.set("islands", shape.islands);
  out.info.set("rescued", static_cast<std::uint64_t>(rescued));
  out.info.set("rescue_after_ms", kRescueAfterMs);

  if (!trace) {
    out.metric("setup_s", median(setup_cpus), "s");
    out.metric("submit_p50_ms", ms(percentile(calm.submit, 0.50)), "ms");
    out.metric("query_p50_ms", ms(percentile(calm.query, 0.50)), "ms");
    out.metric("events_per_s", calm.rate(), "1/s");
    out.metric("cpu_s", median(cpus), "s");
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
    out.metric("sweep_s", calm.rate() > 0 ? answered / calm.rate() : 0.0, "s");
    out.metric("deadline_met_frac",
               v.submitted > 0 ? static_cast<double>(v.on_time) /
                                     static_cast<double>(v.submitted)
                               : 0.0,
               "ratio");
    out.metric("energy_mj_per_ontime_mcycle",
               v.ontime_mcycles > 0.0 ? 1e3 * v.energy_j / v.ontime_mcycles
                                      : 0.0,
               "mJ/Mcycle");
    return out.print();
  }

  // Traced run: the same requests through the library's layers in-process.
  SpanLog spans;
  const RoutePass route = route_pass(stream, spans);
  out.attempted += route.attempted;
  out.absorb(route.failed, {});
  CommitPass commit =
      commit_pass(stream, shape.warm_until, kSolverThreads, spans);
  const WirePass wire = wire_pass(stream, route, spans);

  std::vector<double> tcp = calm.submit;
  tcp.insert(tcp.end(), calm.query.begin(), calm.query.end());
  std::vector<double> routed = route.route_ns;
  const auto counter = [&](const char* name) {
    const auto it = commit.counters.find(name);
    return it == commit.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double solves = counter("transition/solves");
  const auto per_solve = [&](double x) { return solves > 0 ? x / solves : 0.0; };
  double pending_sum = 0.0;
  for (double p : commit.pending) pending_sum += p;

  out.metric("service.daemon.tcp_us_p50", us(median(tcp) - median(routed)),
             "us");
  out.metric("service.daemon.submit_p99_ms", submit_p99, "ms");
  out.metric("service.daemon.query_p99_ms", query_p99, "ms");
  out.metric("service.protocol.peek_ns", wire.peek_ns, "ns");
  out.metric("service.protocol.parse_ns", wire.parse_ns, "ns");
  out.metric("support.json.submit_dump_ns", wire.submit_dump_ns, "ns");
  out.metric("support.json.query_dump_us", wire.query_dump_us, "us");
  out.metric("support.json.query_bytes", wire.query_bytes, "bytes");
  out.metric("service.service.route_us_p50", us(percentile(routed, 0.50)),
             "us");
  out.metric("service.service.route_us_p99", us(percentile(routed, 0.99)),
             "us");
  out.metric("service.service.rescued_requests",
             static_cast<double>(rescued + route.rescued), "count");
  out.metric("sim.event_sim.commit_us_p50",
             us(percentile(commit.commit_ns, 0.50)), "us");
  out.metric("sim.event_sim.commit_us_p99",
             us(percentile(commit.commit_ns, 0.99)), "us");
  out.metric("sim.event_sim.self_us_p50", us(percentile(commit.self_ns, 0.50)),
             "us");
  out.metric("sim.event_sim.pending_mean",
             commit.pending.empty()
                 ? 0.0
                 : pending_sum / static_cast<double>(commit.pending.size()),
             "count");
  out.metric("sim.event_sim.pending_p99", percentile(commit.pending, 0.99),
             "count");
  out.metric("core.online_sdem.replan_us_p50",
             us(percentile(commit.replan_ns, 0.50)), "us");
  out.metric("core.online_sdem.replan_us_p99",
             us(percentile(commit.replan_ns, 0.99)), "us");
  out.metric("core.online_sdem.empty_plans",
             static_cast<double>(commit.empty_plans), "count");
  out.metric("core.online_sdem.stuck_islands", commit.stuck_islands, "count");
  out.metric("core.transition.probes_per_solve",
             per_solve(counter("transition/probes")), "count");
  out.metric("core.transition.pieces_per_solve",
             per_solve(counter("transition/pieces")), "count");
  out.metric("core.transition.task_evals_per_solve",
             per_solve(counter("transition/task_evals_live") +
                       counter("transition/task_evals_cached")),
             "count");
  const double pieces = counter("transition/pieces");
  out.metric("core.transition.pruned_frac",
             pieces > 0 ? counter("transition/pieces_pruned") / pieces : 0.0,
             "ratio");
  out.metric("core.agreeable.dp_cells", counter("agreeable/dp_cells"),
             "count");
  out.metric("core.block.probes", counter("block/probes"), "count");
  out.metric("support.thread_pool.busy_frac", route.busy_frac, "ratio");
  out.metric("perfbench.trace_overhead_ratio",
             commit.plain_seconds > 0
                 ? commit.island_seconds / commit.plain_seconds
                 : 0.0,
             "ratio");
  out.info.set("route_samples", static_cast<std::uint64_t>(routed.size()));
  out.info.set("commit_samples",
               static_cast<std::uint64_t>(commit.commit_ns.size()));
  out.info.set("spans", static_cast<std::uint64_t>(spans.size()));
  if (!spans_path.empty() && !spans.write(spans_path))
    out.absorb(1, {"cannot write " + spans_path});
  return out.print();
}

int run_sweep(const std::string& list, int jobs, const std::string& out_dir,
              const std::string& spans_path) {
  std::vector<std::string> names;
  for (std::size_t at = 0; at <= list.size();) {
    const std::size_t comma = std::min(list.find(',', at), list.size());
    if (comma > at) names.push_back(list.substr(at, comma - at));
    at = comma + 1;
  }
  // The untraced pass first: the same experiments and pool, no spans or
  // counter snapshots. The trace overhead is measured against it.
  const SweepPass plain = sweep_pass(names, jobs, out_dir, nullptr);
  SpanLog spans;
  const SweepPass sweep = sweep_pass(names, jobs, out_dir, &spans);
  Out out;
  out.attempted = 2 * names.size();
  out.absorb(plain.failed, plain.errors);
  out.absorb(sweep.failed, sweep.errors);
  std::map<std::string, double> sum;
  for (const auto& [name, counters] : sweep.counters)
    for (const auto& [k, v] : counters) sum[k] += static_cast<double>(v);
  const auto total = [&](const char* k) {
    const auto it = sum.find(k);
    return it == sum.end() ? 0.0 : it->second;
  };
  const double solves = total("transition/solves");
  const auto per_solve = [&](double x) { return solves > 0 ? x / solves : 0.0; };
  for (const auto& [name, s] : sweep.seconds)
    out.metric("bench." + name + "_s", s, "s");
  out.metric("core.transition.probes_per_solve",
             per_solve(total("transition/probes")), "count");
  out.metric("core.transition.pieces_per_solve",
             per_solve(total("transition/pieces")), "count");
  out.metric("core.transition.task_evals_per_solve",
             per_solve(total("transition/task_evals_live") +
                       total("transition/task_evals_cached")),
             "count");
  const double pieces = total("transition/pieces");
  out.metric("core.transition.pruned_frac",
             pieces > 0 ? total("transition/pieces_pruned") / pieces : 0.0,
             "ratio");
  out.metric("core.agreeable.dp_cells", total("agreeable/dp_cells"), "count");
  out.metric("core.block.probes", total("block/probes"), "count");
  out.metric("support.thread_pool.busy_frac", sweep.busy_frac, "ratio");
  out.metric("perfbench.trace_overhead_ratio",
             plain.wall_s > 0 ? sweep.wall_s / plain.wall_s : 0.0, "ratio");
  out.info.set("wall_s", sweep.wall_s);
  Json per = Json::object();
  for (const auto& [name, counters] : sweep.counters) {
    Json c = Json::object();
    for (const auto& [k, v] : counters) c.set(k, v);
    per.set(name, std::move(c));
  }
  out.info.set("counters", std::move(per));
  if (!spans_path.empty() && !spans.write(spans_path))
    out.absorb(1, {"cannot write " + spans_path});
  return out.print();
}

int run_wake() {
  std::vector<double> late;
  for (int i = 0; i < 400; ++i) {
    const std::uint64_t t0 = now_ns();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    late.push_back(static_cast<double>(now_ns() - t0) - 200e3);
  }
  Out out;
  out.attempted = late.size();
  out.info.set("wake_late_p99_ms", ms(percentile(late, 0.99)));
  out.info.set("wake_late_p50_ms", ms(percentile(late, 0.50)));
  return out.print();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness serve --shape S --seed N --service BIN"
               " --trace 0|1 [--launches K] [--measured M] [--spans PATH]\n"
               "       perfbench_harness sweep --experiments a,b --jobs J"
               " --out-dir DIR [--spans PATH]\n"
               "       perfbench_harness wake\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  std::map<std::string, std::string> opt;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    opt[argv[i] + 2] = argv[i + 1];
  }
  const auto get = [&](const char* key, const char* fallback) {
    const auto it = opt.find(key);
    return it == opt.end() ? std::string(fallback) : it->second;
  };
  try {
    if (cmd == "serve") {
      return run_serve(get("shape", "paper"),
                       std::strtoull(get("seed", "1").c_str(), nullptr, 10),
                       get("service", ""), get("trace", "0") == "1",
                       std::atoi(get("launches", "1").c_str()),
                       std::atoi(get("measured", "1").c_str()),
                       get("spans", ""));
    }
    if (cmd == "sweep") {
      return run_sweep(get("experiments", ""),
                       std::atoi(get("jobs", "4").c_str()),
                       get("out-dir", "."), get("spans", ""));
    }
    if (cmd == "wake") return run_wake();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  return usage();
}
