#include "layers.hpp"

#include <atomic>
#include <cstdio>
#include <memory>

#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include "bench_registry.hpp"
#include "core/online_sdem.hpp"
#include "obs/obs.hpp"
#include "serve.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "sim/event_sim.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {
namespace {

using sdem::Json;

/// Forwards to SdemOnPolicy and times every replan.
class TimedPolicy : public sdem::OnlinePolicy {
 public:
  std::string name() const override { return inner_.name(); }
  void reset() override { inner_.reset(); }

  std::vector<sdem::Segment> replan(
      double now, const std::vector<sdem::PendingTask>& pending,
      const sdem::SystemConfig& cfg) override {
    const std::uint64_t t0 = now_ns();
    std::vector<sdem::Segment> plan = inner_.replan(now, pending, cfg);
    note(t0, now_ns(), plan, pending);
    return plan;
  }

  std::vector<sdem::Segment> replan_completion(
      double now, const std::vector<sdem::PendingTask>& pending,
      const sdem::SystemConfig& cfg) override {
    const std::uint64_t t0 = now_ns();
    std::vector<sdem::Segment> plan =
        inner_.replan_completion(now, pending, cfg);
    note(t0, now_ns(), plan, pending);
    return plan;
  }

  struct Call {
    std::uint64_t start, end;
  };
  std::vector<Call> calls;  ///< replans since the caller last cleared it
  std::uint64_t empty_plans = 0;
  bool last_empty = false;

 private:
  void note(std::uint64_t t0, std::uint64_t t1,
            const std::vector<sdem::Segment>& plan,
            const std::vector<sdem::PendingTask>& pending) {
    calls.push_back({t0, t1});
    last_empty = plan.empty() && !pending.empty();
    if (last_empty) ++empty_plans;
  }

  sdem::SdemOnPolicy inner_;
};

int gettid_now() { return static_cast<int>(::syscall(SYS_gettid)); }

double cpu_self_s() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

}  // namespace

RoutePass route_pass(const Stream& stream, SpanLog& spans) {
  using namespace sdem::service;
  RoutePass out;
  std::size_t total = 0;
  for (const auto& c : stream.conn) total += c.size();
  // done_at[seq] is published (release) after responses[seq] is written.
  std::vector<std::atomic<std::uint64_t>> done_at(total);
  std::vector<Json> responses(total);

  ServiceOptions opt;
  opt.shards = 2;
  opt.producers = 1;
  opt.eager = true;
  auto pool = std::make_unique<sdem::ThreadPool>(opt.shards);
  Service svc(opt, pool.get(), [&](const sdem::service::Request& r, Json resp) {
    responses[r.seq] = std::move(resp);
    done_at[r.seq].store(now_ns(), std::memory_order_release);
  });

  // The TCP client's closed loop without the wire: each connection's
  // requests in order, one in flight per connection.
  struct Lane {
    std::size_t next = 0;
    bool busy = false;
    bool rescued = false;
    std::uint64_t seq = 0, t0 = 0;
  };
  Lane lanes[Stream::kConns];
  const int self = gettid_now();
  const std::uint64_t cpu0 = process_cpu_ns(::getpid(), self);
  const std::uint64_t wall0 = now_ns();
  std::uint64_t seq = 0;
  std::size_t finished = 0;
  while (finished < total) {
    for (int c = 0; c < Stream::kConns; ++c) {
      Lane& l = lanes[c];
      if (!l.busy && l.next < stream.conn[c].size()) {
        const Peeked pk = peek_request(stream.conn[c][l.next].line);
        l.seq = seq++;
        l.t0 = now_ns();
        svc.route_raw(pk.island, pk.op, stream.conn[c][l.next].line, l.seq, c,
                      l.seq);
        svc.flush();
        l.busy = true;
        l.rescued = false;
      }
      if (!l.busy) continue;
      const std::uint64_t t1 = done_at[l.seq].load(std::memory_order_acquire);
      if (t1 == 0) {
        // The same rescue as the TCP client's (serve.hpp), in-process.
        if (!l.rescued && now_ns() - l.t0 >=
                              static_cast<std::uint64_t>(kRescueAfterMs) *
                                  1000000ull) {
          l.rescued = true;
          ++out.rescued;
          svc.drain_all();
        }
        continue;
      }
      const StreamRequest& req = stream.conn[c][l.next];
      spans.add("service.route", l.t0, t1, -1,
                static_cast<std::int64_t>(l.seq));
      if (l.next >= stream.warm[c])
        out.route_ns.push_back(static_cast<double>(t1 - l.t0));
      const Json& resp = responses[l.seq];
      const Json* ok = resp.find("ok");
      ++out.attempted;
      if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
        ++out.failed;
      } else {
        (req.query ? out.query_responses : out.submit_responses)
            .push_back(resp);
      }
      l.busy = false;
      ++l.next;
      ++finished;
    }
  }
  const double wall = static_cast<double>(now_ns() - wall0);
  const double cpu =
      static_cast<double>(process_cpu_ns(::getpid(), self) - cpu0);
  out.busy_frac = cpu / (opt.shards * wall);
  svc.finalize_all();
  return out;
}

CommitPass commit_pass(const Stream& stream, double warm_until, int threads,
                       SpanLog& spans) {
  const sdem::SystemConfig cfg = sdem::SystemConfig::paper_default();
  const std::size_t n = stream.island_tasks.size();
  struct Island {
    std::vector<double> commit, replan, self, pending;
    std::vector<Span> spans;
    std::uint64_t empty = 0;
    bool stuck = false;
    double seconds = 0.0;
  };
  CommitPass pass;
  // The untraced loop first, on a heap the traced pass has not grown: the
  // same islands, policy and workers, nothing recorded.
  {
    std::vector<double> plain(n, 0.0);
    sdem::ThreadPool pool(threads);
    pool.parallel_for(n, [&](std::size_t i) {
      sdem::SdemOnPolicy policy;
      sdem::StreamSim sim(cfg, policy, cfg.num_cores);
      const std::uint64_t start = now_ns();
      for (const sdem::Task& t : stream.island_tasks[i]) {
        sim.inject_arrival(t);
        sim.commit();
      }
      sim.finalize();
      plain[i] = static_cast<double>(now_ns() - start) * 1e-9;
    });
    for (double s : plain) pass.plain_seconds += s;
  }

  std::vector<Island> isl(n);
  sdem::obs::Registry::instance().reset();
  {
    sdem::ThreadPool pool(threads);
    pool.parallel_for(n, [&](std::size_t i) {
      Island& out = isl[i];
      TimedPolicy policy;
      sdem::StreamSim sim(cfg, policy, cfg.num_cores);
      const std::uint64_t start = now_ns();
      std::int64_t k = 0;
      for (const sdem::Task& t : stream.island_tasks[i]) {
        policy.calls.clear();
        const std::uint64_t t0 = now_ns();
        sim.inject_arrival(t);
        sim.commit();
        const std::uint64_t t1 = now_ns();
        const std::int64_t parent = static_cast<std::int64_t>(out.spans.size());
        const std::int64_t req = static_cast<std::int64_t>(i) * 1000000 + k++;
        out.spans.push_back({"sim.commit", t0, t1, -1, req});
        std::uint64_t in_replan = 0;
        for (const TimedPolicy::Call& c : policy.calls) {
          out.spans.push_back({"core.replan", c.start, c.end, parent, req});
          in_replan += c.end - c.start;
        }
        if (t.release < warm_until) continue;
        out.commit.push_back(static_cast<double>(t1 - t0));
        out.self.push_back(static_cast<double>(t1 - t0 - in_replan));
        for (const TimedPolicy::Call& c : policy.calls)
          out.replan.push_back(static_cast<double>(c.end - c.start));
        out.pending.push_back(static_cast<double>(sim.pending().size()));
      }
      sim.finalize();
      out.seconds = static_cast<double>(now_ns() - start) * 1e-9;
      out.empty = policy.empty_plans;
      out.stuck = policy.last_empty;
    });
  }
  for (const auto& [name, v] :
       sdem::obs::Registry::instance().snapshot().counters)
    pass.counters[name] = v;

  for (Island& i : isl) {
    pass.commit_ns.insert(pass.commit_ns.end(), i.commit.begin(),
                          i.commit.end());
    pass.replan_ns.insert(pass.replan_ns.end(), i.replan.begin(),
                          i.replan.end());
    pass.self_ns.insert(pass.self_ns.end(), i.self.begin(), i.self.end());
    pass.pending.insert(pass.pending.end(), i.pending.begin(),
                        i.pending.end());
    pass.empty_plans += i.empty;
    pass.stuck_islands += i.stuck ? 1 : 0;
    pass.island_seconds += i.seconds;
    spans.append(i.spans);
  }
  return pass;
}

WirePass wire_pass(const Stream& stream, const RoutePass& route,
                   SpanLog& spans) {
  using namespace sdem::service;
  std::vector<const std::string*> lines;
  for (const auto& c : stream.conn)
    for (const StreamRequest& r : c) lines.push_back(&r.line);

  // Median over repetitions of (pass time / calls).
  const auto per_call = [&](const char* name, std::size_t calls,
                            const auto& body) {
    std::vector<double> reps;
    for (int rep = 0; rep < 5; ++rep) {
      const std::uint64_t t0 = now_ns();
      body();
      const std::uint64_t t1 = now_ns();
      spans.add(name, t0, t1);
      reps.push_back(static_cast<double>(t1 - t0) /
                     static_cast<double>(std::max<std::size_t>(calls, 1)));
    }
    return median(reps);
  };

  WirePass w;
  volatile long sink = 0;
  w.peek_ns = per_call("service.protocol.peek", lines.size(), [&] {
    long s = 0;
    for (const std::string* l : lines) s += peek_request(*l).island;
    sink = sink + s;
  });
  w.parse_ns = per_call("service.protocol.parse", lines.size(), [&] {
    long s = 0;
    for (const std::string* l : lines) s += parse_request(*l).request.island;
    sink = sink + s;
  });
  w.submit_dump_ns =
      per_call("support.json.dump_submit", route.submit_responses.size(), [&] {
        std::size_t s = 0;
        for (const Json& j : route.submit_responses) s += j.dump(0).size();
        sink = sink + static_cast<long>(s);
      });
  std::size_t bytes = 0;
  w.query_dump_us =
      1e-3 *
      per_call("support.json.dump_query", route.query_responses.size(), [&] {
        std::size_t s = 0;
        for (const Json& j : route.query_responses) s += j.dump(0).size();
        bytes = s;
        sink = sink + static_cast<long>(s);
      });
  w.query_bytes = route.query_responses.empty()
                      ? 0.0
                      : static_cast<double>(bytes) /
                            static_cast<double>(route.query_responses.size());
  return w;
}

SweepPass sweep_pass(const std::vector<std::string>& names, int jobs,
                     const std::string& out_dir, SpanLog* spans) {
  SweepPass out;
  sdem::ThreadPool pool(jobs);
  const double cpu0 = cpu_self_s();
  const std::uint64_t wall0 = now_ns();
  const std::int64_t root =
      spans != nullptr ? spans->add("bench.sweep", wall0, wall0) : -1;
  for (const std::string& name : names) {
    const sdem::bench::Experiment* e = sdem::bench::find_experiment(name);
    if (e == nullptr) {
      ++out.failed;
      out.errors.push_back("unknown experiment " + name);
      continue;
    }
    sdem::bench::RunOptions opt;
    opt.pool = &pool;
    sdem::obs::Registry::instance().reset();
    const std::uint64_t t0 = now_ns();
    try {
      const sdem::bench::ExperimentResult r = e->run(opt);
      const std::uint64_t t1 = now_ns();
      out.seconds.emplace_back(name, static_cast<double>(t1 - t0) * 1e-9);
      if (spans != nullptr) {
        spans->add("bench.experiment", t0, t1, root);
        std::map<std::string, std::uint64_t>& c = out.counters[name];
        for (const auto& [k, v] :
             sdem::obs::Registry::instance().snapshot().counters)
          c[k] = v;
      }
      Json doc = Json::object();
      doc.set("experiment", name);
      doc.set("seeds", e->default_seeds);
      doc.set("data", r.data.without_key("solver_seconds")
                          .without_key("counters"));
      const std::string bytes = doc.dump(2);
      const std::string path = out_dir + "/" + name + ".json";
      std::FILE* f = std::fopen(path.c_str(), "wb");
      if (f == nullptr ||
          std::fwrite(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
        ++out.failed;
        out.errors.push_back("cannot write " + path);
      }
      if (f != nullptr) std::fclose(f);
    } catch (const std::exception& ex) {
      ++out.failed;
      out.errors.push_back(name + " threw: " + ex.what());
    }
  }
  const std::uint64_t wall1 = now_ns();
  out.wall_s = static_cast<double>(wall1 - wall0) * 1e-9;
  out.busy_frac = (cpu_self_s() - cpu0) / (jobs * out.wall_s);
  if (spans != nullptr) spans->close(root, wall1);
  return out;
}

}  // namespace perfbench
