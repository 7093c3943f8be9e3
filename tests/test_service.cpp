// Service-layer tests: wire-protocol validation, online/replay semantics,
// and the determinism contracts from docs/service.md —
//
//   * replay equals batch: a Service fed an arrival stream in replay mode
//     (lazy commits) finalizes to byte-identical SimResults to simulate()
//     and to the frozen simulate_reference() oracle;
//   * shard invariance: the per-island results do not depend on --shards;
//   * live mode: eager per-SUBMIT commits change the replan count but not
//     one byte of the schedule;
//   * the inline request path makes at most a fixed number of heap
//     allocations per request;
//   * a full shard queue holds its producer until the drain catches up.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "baseline/mbkp.hpp"
#include "core/online_sdem.hpp"
#include "sched/trace_io.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "sim/event_sim.hpp"
#include "sim/sim_reference.hpp"
#include "support/thread_pool.hpp"
#include "testing/oracle_compare.hpp"
#include "workload/generator.hpp"

// Every global operator new in this binary counts here; the inline-path
// guard (ServiceHandOff.InlinePathAllocationsPerRequest) reads it. The
// nothrow forms are replaced too: a sanitizer runtime supplies its own,
// which would bypass the count and pair its allocations with the free below.
std::atomic<std::uint64_t> g_operator_new_calls{0};

void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_operator_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new(std::size_t n) {
  if (void* p = operator new(n, std::nothrow)) return p;
  throw std::bad_alloc();
}
// GCC cannot see that the new above is malloc, and flags the free below.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace sdem;
using namespace sdem::service;

// ---------------------------------------------------------------- protocol

TEST(ServiceProtocol, RejectsMalformedRequests) {
  const struct {
    const char* line;
    const char* why;
  } cases[] = {
      {"not json", "parse"},
      {"{\"op\":\"SUBMIT\",", "parse"},
      {"[1,2,3]", "object"},
      {"{}", "op"},
      {"{\"op\":7}", "op"},
      {"{\"op\":\"NOPE\"}", "unknown op"},
      {"{\"op\":\"SUBMIT\"}", "island"},
      {"{\"op\":\"SUBMIT\",\"island\":-1}", "island"},
      {"{\"op\":\"SUBMIT\",\"island\":0.5}", "island"},
      {"{\"op\":\"SUBMIT\",\"island\":4096}", "island"},
      {"{\"op\":\"SUBMIT\",\"island\":0}", "task"},
      {"{\"op\":\"SUBMIT\",\"island\":0,\"task\":3}", "task"},
      {"{\"op\":\"SUBMIT\",\"island\":0,\"task\":{}}", "id"},
      {"{\"op\":\"SUBMIT\",\"island\":0,\"task\":{\"id\":1,\"release\":0,"
       "\"deadline\":1}}",
       "work"},
      {"{\"op\":\"SUBMIT\",\"island\":0,\"task\":{\"id\":1,\"release\":0,"
       "\"deadline\":1,\"work\":-2}}",
       "work"},
      {"{\"op\":\"SUBMIT\",\"island\":0,\"task\":{\"id\":1,\"release\":1,"
       "\"deadline\":1,\"work\":5}}",
       "deadline"},
      {"{\"op\":\"SUBMIT\",\"island\":0,\"task\":{\"id\":1.5,\"release\":0,"
       "\"deadline\":1,\"work\":5}}",
       "id"},
      {"{\"op\":\"QUERY\"}", "island"},
  };
  for (const auto& c : cases) {
    const Parsed p = parse_request(c.line);
    EXPECT_FALSE(p.ok) << c.line;
    EXPECT_NE(p.error.find(c.why), std::string::npos)
        << c.line << " -> " << p.error;
  }
}

TEST(ServiceProtocol, AcceptsWellFormedRequests) {
  Parsed p = parse_request(
      "{\"op\":\"SUBMIT\",\"island\":2,\"task\":{\"id\":7,\"release\":0.25,"
      "\"deadline\":1.5,\"work\":320.5}}");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.request.op, Op::kSubmit);
  EXPECT_EQ(p.request.island, 2);
  EXPECT_EQ(p.request.task.id, 7);
  EXPECT_DOUBLE_EQ(p.request.task.release, 0.25);
  EXPECT_DOUBLE_EQ(p.request.task.deadline, 1.5);
  EXPECT_DOUBLE_EQ(p.request.task.work, 320.5);

  p = parse_request("{\"op\":\"QUERY\",\"island\":0}");
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.request.op, Op::kQuery);
  p = parse_request("{\"op\":\"QUERY\",\"island\":4095}");
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_EQ(p.request.island, kMaxIslands - 1);
  EXPECT_TRUE(parse_request("{\"op\":\"STATS\"}").ok);
  EXPECT_TRUE(parse_request("{\"op\":\"SHUTDOWN\"}").ok);
}

TEST(ServiceProtocol, PeekFindsTheRoutingKey) {
  const Peeked p = peek_request(
      "{\"op\":\"SUBMIT\",\"island\":2,\"task\":{\"id\":7,\"release\":0.25,"
      "\"deadline\":1.5,\"work\":320.5}}");
  EXPECT_TRUE(p.routable());
  EXPECT_EQ(p.op, Op::kSubmit);
  EXPECT_EQ(p.island, 2);

  // Whitespace, member order, and nested braces inside strings don't fool
  // the scanner.
  const Peeked q = peek_request(
      "  { \"note\" : \"has } and { and \\\" inside\" ,\n"
      "    \"island\" : 5 , \"op\" : \"QUERY\" }");
  EXPECT_TRUE(q.routable());
  EXPECT_EQ(q.op, Op::kQuery);
  EXPECT_EQ(q.island, 5);
}

TEST(ServiceProtocol, PeekMatchesFullParserOnDuplicateKeys) {
  // Json::parse keeps the last duplicate key; the peek must agree, or a
  // crafted line could be routed to one shard and parsed as another
  // island's request.
  const std::string line =
      "{\"op\":\"SUBMIT\",\"island\":1,\"island\":6,"
      "\"task\":{\"id\":1,\"release\":0,\"deadline\":1,\"work\":5}}";
  const Peeked p = peek_request(line);
  const Parsed full = parse_request(line);
  ASSERT_TRUE(full.ok);
  ASSERT_TRUE(p.routable());
  EXPECT_EQ(p.island, full.request.island);
  EXPECT_EQ(p.island, 6);
}

TEST(ServiceProtocol, PeekFallsBackConservatively) {
  // Not routable ≠ malformed: these must fall back to the full parser.
  EXPECT_FALSE(peek_request("{\"op\":\"SUBMIT\",\"island\":2.0}").routable())
      << "float island is full-parser territory";
  EXPECT_FALSE(peek_request("{\"op\":\"SUBMIT\",\"island\":2e1}").routable());
  EXPECT_FALSE(peek_request("{\"op\":\"SUBMIT\",\"island\":-3}").routable());
  EXPECT_FALSE(peek_request("{\"op\":\"STATS\"}").routable())
      << "STATS is service-wide, never shard-routable";
  EXPECT_FALSE(peek_request("{\"op\":\"SHUTDOWN\"}").routable());
  EXPECT_FALSE(peek_request("{\"op\":\"NOPE\",\"island\":1}").routable())
      << "unknown op: let parse_request produce the diagnostic";
  EXPECT_FALSE(peek_request("{\"island\":1}").routable());
  EXPECT_FALSE(peek_request("not json").routable());
  EXPECT_FALSE(peek_request("{\"op\":\"SUBMIT\",\"island\":").routable());
  EXPECT_FALSE(
      peek_request("{\"op\":\"SUBMIT\",\"island\":99999999999}").routable())
      << "overlong island literal";
}

// ----------------------------------------------------------- test harness

/// Synchronous single-threaded driver: routes requests inline (null pool)
/// and keeps every response by seq.
struct InlineHarness {
  explicit InlineHarness(ServiceOptions opt)
      : svc(std::move(opt), nullptr, [this](const Request& r, Json resp) {
          responses.emplace(r.seq, std::move(resp));
        }) {}

  Json submit(int island, int id, double release, double deadline,
              double work) {
    Request r;
    r.op = Op::kSubmit;
    r.island = island;
    r.task = Task{id, release, deadline, work};
    r.seq = next_seq++;
    svc.route(std::move(r));
    return responses.at(next_seq - 1);
  }

  Json query(int island) {
    Request r;
    r.op = Op::kQuery;
    r.island = island;
    r.seq = next_seq++;
    svc.route(std::move(r));
    return responses.at(next_seq - 1);
  }

  std::map<std::uint64_t, Json> responses;
  std::uint64_t next_seq = 0;
  Service svc;
};

ServiceOptions eager_opts() {
  ServiceOptions o;
  o.eager = true;
  return o;
}

// ----------------------------------------------------- semantic validation

TEST(ServiceSemantics, RejectsDuplicateTaskIdPerIsland) {
  InlineHarness h(eager_opts());
  EXPECT_TRUE(h.submit(0, 1, 0.0, 0.5, 100.0).at("ok").as_bool());
  const Json dup = h.submit(0, 1, 0.1, 0.9, 50.0);
  EXPECT_FALSE(dup.at("ok").as_bool());
  EXPECT_NE(dup.at("error").as_string().find("duplicate"), std::string::npos);
  // Same id on a different island is a different task.
  EXPECT_TRUE(h.submit(1, 1, 0.1, 0.9, 50.0).at("ok").as_bool());
  // Still caught after the id table has grown several times, for any int.
  for (int id = 2; id < 200; ++id) {
    ASSERT_TRUE(h.submit(0, id * 1024, 0.1 + 0.001 * id, 5.0, 1.0)
                    .at("ok")
                    .as_bool());
  }
  const int kMin = std::numeric_limits<int>::min();
  EXPECT_TRUE(h.submit(0, kMin, 0.3, 5.0, 1.0).at("ok").as_bool());
  EXPECT_FALSE(h.submit(0, kMin, 0.3, 5.0, 1.0).at("ok").as_bool());
  EXPECT_FALSE(h.submit(0, 50 * 1024, 0.3, 5.0, 1.0).at("ok").as_bool());
  EXPECT_TRUE(h.submit(0, 50 * 1024 + 1, 0.3, 5.0, 1.0).at("ok").as_bool());
}

TEST(ServiceSemantics, RejectsUnknownIslandQuery) {
  InlineHarness h(eager_opts());
  const Json resp = h.query(42);
  EXPECT_FALSE(resp.at("ok").as_bool());
  EXPECT_NE(resp.at("error").as_string().find("unknown island"),
            std::string::npos);
}

TEST(ServiceSemantics, RejectsOutOfOrderArrival) {
  InlineHarness h(eager_opts());
  EXPECT_TRUE(h.submit(0, 1, 1.0, 2.0, 100.0).at("ok").as_bool());
  const Json late = h.submit(0, 2, 0.5, 2.0, 100.0);
  EXPECT_FALSE(late.at("ok").as_bool());
  EXPECT_NE(late.at("error").as_string().find("out of order"),
            std::string::npos);
  // The rejected task must not poison the island: a later id reusing it
  // succeeds (the duplicate guard was rolled back).
  EXPECT_TRUE(h.submit(0, 2, 1.5, 3.0, 80.0).at("ok").as_bool());
}

TEST(ServiceSemantics, QueryReportsThePlan) {
  InlineHarness h(eager_opts());
  h.submit(3, 9, 0.0, 1.0, 500.0);
  const Json q = h.query(3);
  ASSERT_TRUE(q.at("ok").as_bool());
  EXPECT_EQ(q.at("pending").as_number(), 1);
  EXPECT_EQ(q.at("replans").as_number(), 1);
  const Json& plan = q.at("plan");
  ASSERT_GE(plan.size(), 1u);
  EXPECT_EQ(plan.at(0u).at("task").as_number(), 9);
}

TEST(ServiceSemantics, StatsCountsRequestsAndShards) {
  ServiceOptions opt = eager_opts();
  opt.shards = 2;
  InlineHarness h(opt);
  h.submit(0, 1, 0.0, 1.0, 100.0);
  h.submit(1, 1, 0.0, 1.0, 100.0);
  h.submit(0, 2, 0.2, 1.2, 100.0);
  const Json stats = h.svc.stats(99);
  ASSERT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("requests").as_number(), 3);
  EXPECT_EQ(stats.at("islands").as_number(), 2);
  ASSERT_EQ(stats.at("shards").size(), 2u);
  // Sustained-load latency reporting: the runtime-domain histogram must
  // surface per-shard p50/p99 replan latency.
  const Json& shard0 = stats.at("shards").at(0u);
  ASSERT_TRUE(shard0.has("replan_latency"));
  EXPECT_GE(shard0.at("replan_latency").at("p99_ns").as_number(),
            shard0.at("replan_latency").at("p50_ns").as_number());
  EXPECT_GT(shard0.at("replan_latency").at("count").as_number(), 0);
}

TEST(ServiceProtocol, MetricsGrammarRoundTrips) {
  EXPECT_STREQ(op_name(Op::kMetrics), "METRICS");
  const Parsed p = parse_request("{\"op\":\"METRICS\"}");
  ASSERT_TRUE(p.ok);
  EXPECT_EQ(p.request.op, Op::kMetrics);
  // The peek recognizes the verb but never routes it: METRICS is a
  // service-wide barrier, dispatched after a full parse like STATS.
  const Peeked peek = peek_request("{\"op\":\"METRICS\"}");
  EXPECT_TRUE(peek.has_op);
  EXPECT_EQ(peek.op, Op::kMetrics);
  EXPECT_FALSE(peek.routable());
}

TEST(ServiceSemantics, MetricsExposesPrometheusText) {
  ServiceOptions opt = eager_opts();
  opt.shards = 2;
  InlineHarness h(opt);
  h.submit(0, 1, 0.0, 1.0, 100.0);
  h.submit(1, 1, 0.0, 1.0, 100.0);
  const Json m = h.svc.metrics(7);
  ASSERT_TRUE(m.at("ok").as_bool());
  EXPECT_EQ(m.at("op").as_string(), "METRICS");
  EXPECT_EQ(m.at("seq").as_number(), 7);
  EXPECT_GT(m.at("uptime_s").as_number(), 0.0);
  EXPECT_EQ(m.at("requests").as_number(), 2);
  EXPECT_EQ(m.at("content_type").as_string(), "text/plain; version=0.0.4");

  // Exposition grammar: every non-comment line is `name[{labels}] value`
  // with a fully-consumed numeric value.
  const std::string& body = m.at("body").as_string();
  std::size_t start = 0;
  int lines = 0;
  while (start < body.size()) {
    std::size_t end = body.find('\n', start);
    if (end == std::string::npos) end = body.size();
    const std::string line = body.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    ++lines;
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const std::string name = line.substr(0, sp);
    ASSERT_FALSE(name.empty()) << line;
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      EXPECT_NE(name.find('=', brace), std::string::npos) << line;
    }
    std::size_t consumed = 0;
    const double v = std::stod(line.substr(sp + 1), &consumed);
    EXPECT_EQ(consumed, line.size() - sp - 1) << line;
    EXPECT_TRUE(v == v) << line;  // no NaNs in the exposition
  }
  EXPECT_GT(lines, 0);

  const auto npos = std::string::npos;
  EXPECT_NE(body.find("sdem_uptime_seconds "), npos);
  EXPECT_NE(body.find("sdem_requests_total 2"), npos);
  EXPECT_NE(body.find("sdem_islands 2"), npos);
  EXPECT_NE(body.find("sdem_shard_requests_total{shard=\"0\"} "), npos);
  EXPECT_NE(body.find("sdem_ring_occupancy{shard=\"1\"} "), npos);
  EXPECT_NE(body.find("sdem_backpressure_stalls_total{shard=\"0\"} "), npos);
  // Without a pool every drain runs on the routing thread.
  EXPECT_NE(body.find("sdem_shard_drains_total{shard=\"1\","
                      "where=\"inline\"} 1\n"),
            npos);
  EXPECT_NE(body.find("sdem_shard_drains_total{shard=\"1\","
                      "where=\"pool\"} 0\n"),
            npos);
  EXPECT_NE(body.find("sdem_replan_latency_seconds{shard=\"0\","
                      "quantile=\"0.99\"} "),
            npos);
  EXPECT_NE(body.find("sdem_e2e_latency_seconds_count{shard=\"1\"} "),
            npos);
  EXPECT_NE(body.find("sdem_governor_ladder_aborts_total "), npos);
}

// ------------------------------------------------------------ determinism

/// A deterministic multi-island arrival stream: per island a synthetic
/// trace (non-decreasing releases), interleaved globally by release.
std::vector<Request> make_stream(int islands, int tasks_per_island,
                                 std::uint64_t seed) {
  std::vector<Request> reqs;
  for (int isl = 0; isl < islands; ++isl) {
    SyntheticParams p;
    p.num_tasks = tasks_per_island;
    p.max_interarrival = 0.050;
    const TaskSet ts = make_synthetic(p, seed * 97 + isl);
    for (const Task& t : ts.tasks()) {
      Request r;
      r.op = Op::kSubmit;
      r.island = isl;
      r.task = t;
      reqs.push_back(r);
    }
  }
  std::stable_sort(reqs.begin(), reqs.end(),
                   [](const Request& a, const Request& b) {
                     return a.task.release < b.task.release;
                   });
  for (std::size_t i = 0; i < reqs.size(); ++i) reqs[i].seq = i;
  return reqs;
}

std::vector<Service::IslandResult> run_stream(
    const std::vector<Request>& reqs, const std::string& policy, int shards,
    bool eager, ThreadPool* pool) {
  ServiceOptions opt;
  opt.policy = policy;
  opt.shards = shards;
  opt.eager = eager;
  std::mutex mu;
  std::vector<std::string> errors;
  Service svc(opt, pool, [&](const Request& r, Json resp) {
    if (!resp.at("ok").as_bool()) {
      std::lock_guard<std::mutex> lock(mu);
      errors.push_back("seq " + std::to_string(r.seq) + ": " +
                       resp.at("error").as_string());
    }
  });
  for (const Request& r : reqs) svc.route(r);
  auto out = svc.finalize_all();
  EXPECT_TRUE(errors.empty()) << errors.front();
  return out;
}

/// The byte surface of one island's result.
std::string result_bytes(const Service::IslandResult& r) {
  return schedule_to_csv(r.result.schedule) + "|replans=" +
         std::to_string(r.result.replans) + "|misses=" +
         std::to_string(r.result.deadline_misses) + "|unfinished=" +
         std::to_string(r.result.unfinished);
}

TEST(ServiceDeterminism, ReplayMatchesBatchAndFrozenReference) {
  const auto reqs = make_stream(/*islands=*/4, /*tasks_per_island=*/60, 5);
  ThreadPool pool(4);
  const auto islands = run_stream(reqs, "sdem-on", 4, /*eager=*/false, &pool);
  ASSERT_EQ(islands.size(), 4u);
  for (const auto& isl : islands) {
    const TaskSet ts(isl.tasks);
    // Batch simulator, same policy implementation.
    SdemOnPolicy batch_policy;
    const SimResult batch = simulate(ts, SystemConfig::paper_default(),
                                     batch_policy);
    EXPECT_EQ(schedule_to_csv(isl.result.schedule),
              schedule_to_csv(batch.schedule))
        << "island " << isl.island;
    EXPECT_EQ(isl.result.replans, batch.replans);
    EXPECT_EQ(isl.result.deadline_misses, batch.deadline_misses);
    EXPECT_EQ(isl.result.unfinished, batch.unfinished);
    EXPECT_EQ(isl.result.horizon_lo, batch.horizon_lo);
    EXPECT_EQ(isl.result.horizon_hi, batch.horizon_hi);
    // Frozen oracle (docs/testing.md): the paper config plans with the
    // Section 7 solver, so the reference simulator agrees within the
    // stated tolerance of that trade.
    SdemOnReferencePolicy ref_policy;
    const SimResult ref =
        simulate_reference(ts, SystemConfig::paper_default(), ref_policy);
    EXPECT_EQ(sdem::testing::compare_section7_runs(
                  isl.result, ref, SystemConfig::paper_default(),
                  sdem::testing::EnergyBound::kWithin),
              "")
        << "island " << isl.island;
  }
}

TEST(ServiceDeterminism, ShardCountDoesNotChangeResults) {
  const auto reqs = make_stream(/*islands=*/5, /*tasks_per_island=*/40, 9);
  const auto serial = run_stream(reqs, "sdem-on", 1, false, nullptr);
  ThreadPool pool(4);
  const auto sharded = run_stream(reqs, "sdem-on", 4, false, &pool);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].island, sharded[i].island);
    EXPECT_EQ(result_bytes(serial[i]), result_bytes(sharded[i]))
        << "island " << serial[i].island;
  }
}

TEST(ServiceDeterminism, EagerCommitsKeepScheduleBytes) {
  // Live mode commits on every SUBMIT (same-instant batches split into
  // several replans); the schedule must not change by a byte. Include
  // same-release pairs to exercise exactly that splitting.
  std::vector<Request> reqs;
  int id = 0;
  const double releases[] = {0.0, 0.0, 0.1, 0.1, 0.1, 0.25, 0.4, 0.4};
  for (const double rel : releases) {
    Request r;
    r.op = Op::kSubmit;
    r.island = 0;
    r.task = Task{id, rel, rel + 0.3 + 0.05 * id, 40.0 + 13.0 * id};
    r.seq = static_cast<std::uint64_t>(id);
    ++id;
    reqs.push_back(r);
  }
  const auto lazy = run_stream(reqs, "mbkp", 1, /*eager=*/false, nullptr);
  const auto eager = run_stream(reqs, "mbkp", 1, /*eager=*/true, nullptr);
  ASSERT_EQ(lazy.size(), 1u);
  ASSERT_EQ(eager.size(), 1u);
  EXPECT_EQ(schedule_to_csv(lazy[0].result.schedule),
            schedule_to_csv(eager[0].result.schedule));
  EXPECT_EQ(lazy[0].result.deadline_misses, eager[0].result.deadline_misses);
  // Eager mode replans once per SUBMIT, lazy once per distinct instant
  // (releases 0.0, 0.1, 0.25, 0.4).
  EXPECT_EQ(eager[0].result.replans, 8);
  EXPECT_EQ(lazy[0].result.replans, 4);

  MbkpPolicy batch_policy;
  std::vector<Task> tasks;
  for (const auto& r : reqs) tasks.push_back(r.task);
  const SimResult batch =
      simulate(TaskSet(tasks), SystemConfig::paper_default(), batch_policy);
  EXPECT_EQ(schedule_to_csv(batch.schedule),
            schedule_to_csv(eager[0].result.schedule));
}

// ---------------------------------------------------------- parse-on-shard

/// Wire rendering of a SUBMIT request (what the daemon's ingest sees).
std::string submit_wire_line(const Request& r) {
  Json task = Json::object();
  task.set("id", r.task.id);
  task.set("release", r.task.release);
  task.set("deadline", r.task.deadline);
  task.set("work", r.task.work);
  Json req = Json::object();
  req.set("op", "SUBMIT");
  req.set("island", r.island);
  req.set("task", std::move(task));
  return req.dump(0);
}

/// The lines of a METRICS exposition's `family` whose labels end in
/// `label_end`, their values summed over every shard.
double family_total(const std::string& metrics, const std::string& family,
                    const std::string& label_end) {
  double total = 0.0;
  for (std::size_t at = metrics.find(family + "{"); at != std::string::npos;
       at = metrics.find(family + "{", at + 1)) {
    const std::string line = metrics.substr(at, metrics.find('\n', at) - at);
    const std::size_t l = line.find(label_end);
    if (l != std::string::npos) {
      total += std::stod(line.substr(l + label_end.size()));
    }
  }
  return total;
}

/// Drains of one placement ("inline" or "pool") summed over every shard.
double drains(const std::string& metrics, const std::string& where) {
  return family_total(metrics, "sdem_shard_drains_total",
                      ",where=\"" + where + "\"} ");
}

/// Same stream as run_stream, but shipped as raw lines through the
/// parse-on-shard path (peek routing + shard-side parse_request). When
/// `metrics` is set, it receives the finalized service's METRICS body.
std::vector<Service::IslandResult> run_stream_raw(
    const std::vector<Request>& reqs, const std::string& policy, int shards,
    ThreadPool* pool, std::string* metrics = nullptr) {
  ServiceOptions opt;
  opt.policy = policy;
  opt.shards = shards;
  opt.eager = false;
  std::mutex mu;
  std::vector<std::string> errors;
  Service svc(opt, pool, [&](const Request& r, Json resp) {
    if (!resp.at("ok").as_bool()) {
      std::lock_guard<std::mutex> lock(mu);
      errors.push_back("seq " + std::to_string(r.seq) + ": " +
                       resp.at("error").as_string());
    }
  });
  for (const Request& r : reqs) {
    std::string line = submit_wire_line(r);
    const Peeked peek = peek_request(line);
    EXPECT_TRUE(peek.routable());
    svc.route_raw(peek.island, peek.op, std::move(line), r.seq, 0, r.seq);
  }
  auto out = svc.finalize_all();
  EXPECT_TRUE(errors.empty()) << errors.front();
  if (metrics != nullptr) *metrics = svc.metrics_text();
  return out;
}

TEST(ServiceDeterminism, ParseOnShardIsByteIdenticalAcrossShardCounts) {
  // The tentpole determinism contract: raw lines routed by peek and parsed
  // in the shard drains finalize to byte-identical per-island results at
  // any shard count — and to the parsed-route path. The 4-shard run pushes
  // batches of 16 to 64 lines, too deep to drain inline, so it also pins
  // the pooled drains to the serial reference.
  const auto reqs = make_stream(/*islands=*/5, /*tasks_per_island=*/40, 13);
  const auto parsed = run_stream(reqs, "sdem-on", 1, false, nullptr);
  const auto raw1 = run_stream_raw(reqs, "sdem-on", 1, nullptr);
  ThreadPool pool(4);
  std::string metrics4;
  const auto raw4 = run_stream_raw(reqs, "sdem-on", 4, &pool, &metrics4);
  EXPECT_GT(drains(metrics4, "pool"), 0.0) << metrics4;
  ASSERT_EQ(parsed.size(), raw1.size());
  ASSERT_EQ(parsed.size(), raw4.size());
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].island, raw1[i].island);
    EXPECT_EQ(parsed[i].island, raw4[i].island);
    EXPECT_EQ(result_bytes(parsed[i]), result_bytes(raw1[i]))
        << "island " << parsed[i].island;
    EXPECT_EQ(result_bytes(parsed[i]), result_bytes(raw4[i]))
        << "island " << parsed[i].island;
  }
}

/// Route `reqs` through a two-shard pooled service with one request in
/// flight at a time, and no drain_all() or STATS barrier to rescue a queue
/// whose drain retired without seeing the push: every SUBMIT must be
/// answered within 1 s, or the drain hand-off lost its wake-up. The loop
/// polls for each answer instead of sleeping on it, so the next push lands
/// while the drain that answered is still on its way to retiring.
/// `metrics` receives the METRICS body afterwards.
void run_closed_loop(const std::vector<Request>& reqs, std::string* metrics) {
  ThreadPool pool(2);
  ServiceOptions opt;
  opt.shards = 2;
  std::atomic<std::size_t> answered{0};
  Service svc(opt, &pool,
              [&](const Request&, Json) { answered.fetch_add(1); });
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    svc.route(reqs[i]);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(1);
    while (answered.load() <= i) {
      if (std::chrono::steady_clock::now() > deadline) {
        svc.drain_all();  // unstick the queue so the service can shut down
        FAIL() << "request " << i << " (island " << reqs[i].island
               << ") unanswered after 1 s";
      }
      std::this_thread::yield();
    }
  }
  svc.drain_all();
  *metrics = svc.metrics_text();
}

TEST(ServiceHandOff, ClosedLoopAnswersEveryRequestWithoutABarrier) {
  // Both drain placements under a closed loop. The light stream keeps few
  // tasks pending, so the routing thread drains every request itself. The
  // heavy one has far deadlines, so its islands keep more than the inline
  // bound (16) pending, and its drains go through the pool hand-off that
  // can lose a wake-up.
  std::string light;
  ASSERT_NO_FATAL_FAILURE(run_closed_loop(
      make_stream(/*islands=*/2, /*tasks_per_island=*/1500, 13), &light));
  EXPECT_GT(drains(light, "inline"), 0.0) << light;
  EXPECT_EQ(drains(light, "pool"), 0.0) << light;

  auto heavy = make_stream(/*islands=*/2, /*tasks_per_island=*/300, 13);
  for (Request& r : heavy) r.task.deadline = r.task.release + 1000.0;
  std::string pooled;
  ASSERT_NO_FATAL_FAILURE(run_closed_loop(heavy, &pooled));
  EXPECT_GT(drains(pooled, "pool"), 0.0) << pooled;
}

TEST(ServiceHandOff, FullQueueHoldsTheProducerUntilTheDrainCatchesUp) {
  // Two-message shard queues and far deadlines: the islands keep more than
  // the inline bound (16) pending, so every drain runs on the pool, and the
  // producer outruns it. route_raw must then wait for room, so the
  // unanswered requests never exceed what each shard can hold: a staged
  // batch (under 64 lines), a full queue and the batch its drain handles.
  auto reqs = make_stream(/*islands=*/4, /*tasks_per_island=*/300, 21);
  for (Request& r : reqs) r.task.deadline = r.task.release + 1000.0;
  const auto serial = run_stream_raw(reqs, "sdem-on", 1, nullptr);

  constexpr std::size_t kCapacity = 2;
  ThreadPool pool(2);
  ServiceOptions opt;
  opt.shards = 2;
  opt.eager = false;
  opt.queue_capacity = kCapacity;
  std::atomic<std::size_t> answered{0};
  std::atomic<std::size_t> errors{0};
  Service svc(opt, &pool, [&](const Request&, Json resp) {
    if (!resp.at("ok").as_bool()) errors.fetch_add(1);
    answered.fetch_add(1);
  });
  const std::size_t bound = 2 * (64 + 2 * kCapacity);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    std::string line = submit_wire_line(reqs[i]);
    const Peeked peek = peek_request(line);
    ASSERT_TRUE(peek.routable()) << line;
    svc.route_raw(peek.island, peek.op, std::move(line), reqs[i].seq, 0,
                  reqs[i].seq);
    ASSERT_LE(i + 1 - answered.load(), bound) << "after request " << i;
  }
  const auto sharded = svc.finalize_all();
  EXPECT_EQ(errors.load(), 0u);
  const std::string metrics = svc.metrics_text();
  const double waits =
      family_total(metrics, "sdem_backpressure_stalls_total", "\"} ");
  EXPECT_GT(waits, 0.0) << metrics;
  std::printf("full queue: %.0f backpressure waits\n", waits);
  ASSERT_EQ(serial.size(), sharded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].island, sharded[i].island);
    EXPECT_EQ(result_bytes(serial[i]), result_bytes(sharded[i]))
        << "island " << serial[i].island;
  }
}

TEST(ServiceHandOff, InlinePathAllocationsPerRequest) {
  // The daemon's serve shape without its sockets: two shards and a pool,
  // eager commits, one raw wire line in flight, and each response dumped
  // as the daemon dumps it. Every drain then runs on the routing thread,
  // so the operator new calls per request are the inline path's own — a
  // figure CI can hold without timing anything. The first half of the
  // stream grows every buffer, table and obs cell to its working size; the
  // second half is counted. Each island gets a QUERY after 3 SUBMITs.
  const auto reqs = make_stream(/*islands=*/2, /*tasks_per_island=*/400, 13);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    lines.push_back(submit_wire_line(reqs[i]));
    if (i % 3 == 2) {
      lines.push_back("{\"op\":\"QUERY\",\"island\":" +
                      std::to_string(reqs[i].island) + "}");
    }
  }
  ThreadPool pool(2);
  ServiceOptions opt;
  opt.shards = 2;
  std::atomic<std::size_t> answered{0};
  std::string last;
  Service svc(opt, &pool, [&](const Request&, Json resp) {
    last = resp.dump(0);
    answered.fetch_add(1);
  });
  const std::size_t warm = lines.size() / 2;
  std::uint64_t news_before = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i == warm) news_before = g_operator_new_calls.load();
    const Peeked peek = peek_request(lines[i]);
    ASSERT_TRUE(peek.routable()) << lines[i];
    svc.route_raw(peek.island, peek.op, std::move(lines[i]), i, 0, i);
    svc.flush();
    ASSERT_EQ(answered.load(), i + 1) << "request " << i << " left the thread";
    ASSERT_NE(last.find("\"ok\": true"), std::string::npos) << last;
  }
  const double per_request =
      static_cast<double>(g_operator_new_calls.load() - news_before) /
      static_cast<double>(lines.size() - warm);
  // 17.93 before the drain buffer, the registry lookups, the dump
  // reservation and the flat task-id table took their allocations off this
  // path; the rest are the parse, the response, its dump and the replan.
  EXPECT_LE(per_request, 10.17);
  std::printf("inline path: %.3f operator new calls per request\n",
              per_request);
}

TEST(ServiceHandOff, PooledPathAllocationsPerMessage) {
  // The batch-ingest shape: two shards and a pool, lazy commits, and raw
  // SUBMIT lines routed with no flush() between them, so every push moves
  // a staged batch of 64, too deep to drain inline, and every drain runs
  // on the pool. Each response is dumped as the daemon dumps it. The
  // islands alternate line by line and each half of the stream gives each
  // shard a whole number of batches: the first half grows every buffer,
  // table and obs cell to its working size, and the second half, counted,
  // leaves nothing staged.
  constexpr int kPerIsland = 4096;
  std::vector<std::string> per_island[2];
  for (const Request& r : make_stream(/*islands=*/2, kPerIsland, 17)) {
    per_island[r.island].push_back(submit_wire_line(r));
  }
  std::vector<std::string> lines;
  for (int i = 0; i < kPerIsland; ++i) {
    for (auto& island : per_island) lines.push_back(std::move(island[i]));
  }
  ThreadPool pool(2);
  ServiceOptions opt;
  opt.shards = 2;
  opt.eager = false;
  std::atomic<std::size_t> answered{0};
  std::atomic<std::size_t> failed{0};
  Service svc(opt, &pool, [&](const Request&, Json resp) {
    if (resp.dump(0).find("\"ok\": true") == std::string::npos) {
      failed.fetch_add(1);
    }
    answered.fetch_add(1);
  });
  const auto route = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      const Peeked peek = peek_request(lines[i]);
      ASSERT_TRUE(peek.routable()) << lines[i];
      svc.route_raw(peek.island, peek.op, std::move(lines[i]), i, 0, i);
    }
    svc.drain_all();
  };
  const std::size_t warm = lines.size() / 2;
  ASSERT_NO_FATAL_FAILURE(route(0, warm));
  const double inline_before = drains(svc.metrics_text(), "inline");
  const std::uint64_t news_before = g_operator_new_calls.load();
  ASSERT_NO_FATAL_FAILURE(route(warm, lines.size()));
  const double per_message =
      static_cast<double>(g_operator_new_calls.load() - news_before) /
      static_cast<double>(lines.size() - warm);
  EXPECT_EQ(answered.load(), lines.size());
  EXPECT_EQ(failed.load(), 0u);
  const std::string metrics = svc.metrics_text();
  EXPECT_EQ(drains(metrics, "inline"), inline_before) << metrics;
  // 7.248-7.253 over 12 runs when this guard was added, rounded up to the
  // next 0.05: the parse, the response and its dump, and the lazy replans.
  EXPECT_LE(per_message, 7.30);
  std::printf("pooled path: %.3f operator new calls per message\n",
              per_message);
}

TEST(ServiceSemantics, MalformedRawLineYieldsErrorEnvelope) {
  // A line whose routing key peeks fine but whose payload fails the full
  // parse: the shard worker must answer with the uniform error envelope
  // carrying the ingest-assigned seq.
  std::map<std::uint64_t, Json> responses;
  ServiceOptions opt;
  Service svc(opt, nullptr, [&](const Request& r, Json resp) {
    responses.emplace(r.seq, std::move(resp));
  });
  const std::string bad =
      "{\"op\":\"SUBMIT\",\"island\":0,\"task\":{\"id\":1,\"release\":0,"
      "\"deadline\":1,\"work\":-2}}";
  const Peeked peek = peek_request(bad);
  ASSERT_TRUE(peek.routable());
  svc.route_raw(peek.island, peek.op, bad, /*seq=*/7, 0, 0);
  svc.flush();
  svc.drain_all();
  ASSERT_EQ(responses.count(7), 1u);
  EXPECT_FALSE(responses.at(7).at("ok").as_bool());
  EXPECT_EQ(responses.at(7).at("seq").as_number(), 7);
  EXPECT_NE(responses.at(7).at("error").as_string().find("work"),
            std::string::npos);

  // An island past kMaxIslands peeks as routable; its drain answers it in
  // its slot and creates no island.
  const std::string far =
      "{\"op\":\"SUBMIT\",\"island\":4096,\"task\":{\"id\":1,\"release\":0,"
      "\"deadline\":1,\"work\":5}}";
  const Peeked far_peek = peek_request(far);
  ASSERT_TRUE(far_peek.routable());
  svc.route_raw(far_peek.island, far_peek.op, far, /*seq=*/8, 0, 1);
  svc.flush();
  svc.drain_all();
  ASSERT_EQ(responses.count(8), 1u);
  EXPECT_FALSE(responses.at(8).at("ok").as_bool());
  EXPECT_NE(responses.at(8).at("error").as_string().find("island"),
            std::string::npos);
  EXPECT_EQ(svc.stats(9).at("islands").as_number(), 0.0);
}

TEST(ServiceSemantics, DeeplyNestedLineYieldsErrorEnvelope) {
  // A SUBMIT whose task opens 200 000 arrays peeks as routable, so the
  // parse that refuses it runs on a shard worker. It must answer with an
  // error envelope and leave the service serving.
  const std::string deep = "{\"op\":\"SUBMIT\",\"island\":0,\"task\":" +
                           std::string(200000, '[');
  const Parsed parsed = parse_request(deep);
  EXPECT_FALSE(parsed.ok);
  EXPECT_NE(parsed.error.find("nested"), std::string::npos) << parsed.error;

  std::map<std::uint64_t, Json> responses;
  ServiceOptions opt;
  Service svc(opt, nullptr, [&](const Request& r, Json resp) {
    responses.emplace(r.seq, std::move(resp));
  });
  const Peeked peek = peek_request(deep);
  ASSERT_TRUE(peek.routable());
  svc.route_raw(peek.island, peek.op, deep, /*seq=*/1, 0, 0);
  const std::string good =
      "{\"op\":\"SUBMIT\",\"island\":0,\"task\":{\"id\":1,\"release\":0,"
      "\"deadline\":1,\"work\":5}}";
  svc.route_raw(0, Op::kSubmit, good, /*seq=*/2, 0, 1);
  svc.flush();
  svc.drain_all();
  ASSERT_EQ(responses.count(1), 1u);
  EXPECT_FALSE(responses.at(1).at("ok").as_bool());
  ASSERT_EQ(responses.count(2), 1u);
  EXPECT_TRUE(responses.at(2).at("ok").as_bool());
}

TEST(ServiceSemantics, MisroutedRawLineIsRejectedNotCrossRouted) {
  // Defense in depth: if a caller routes a raw line to the wrong shard
  // (possible only with a buggy or adversarial peek), the shard must
  // reject it rather than touch an island another shard owns.
  std::map<std::uint64_t, Json> responses;
  ServiceOptions opt;
  opt.shards = 2;
  Service svc(opt, nullptr, [&](const Request& r, Json resp) {
    responses.emplace(r.seq, std::move(resp));
  });
  const std::string line =
      "{\"op\":\"SUBMIT\",\"island\":1,\"task\":{\"id\":1,\"release\":0,"
      "\"deadline\":1,\"work\":5}}";
  // Deliberately claim island 0 (shard 0); the line parses to island 1
  // (shard 1).
  svc.route_raw(/*island=*/0, Op::kSubmit, line, /*seq=*/3, 0, 0);
  svc.flush();
  svc.drain_all();
  ASSERT_EQ(responses.count(3), 1u);
  EXPECT_FALSE(responses.at(3).at("ok").as_bool());
  EXPECT_NE(responses.at(3).at("error").as_string().find("misrouted"),
            std::string::npos);
  // Island 1 must be untouched: a fresh, correctly-routed submit with the
  // same id succeeds (no duplicate registered by the misroute).
  const Peeked peek = peek_request(line);
  svc.route_raw(peek.island, peek.op, line, /*seq=*/4, 0, 1);
  svc.flush();
  svc.drain_all();
  ASSERT_EQ(responses.count(4), 1u);
  EXPECT_TRUE(responses.at(4).at("ok").as_bool());
}

// -------------------------------------------------------------- StreamSim

TEST(StreamSim, DrivesLikeBatchAndSupportsAdvance) {
  SyntheticParams p;
  p.num_tasks = 50;
  const TaskSet ts = make_synthetic(p, 21);
  const SystemConfig cfg = SystemConfig::paper_default();

  SdemOnPolicy batch_policy;
  const SimResult batch = simulate(ts, cfg, batch_policy);

  SdemOnPolicy stream_policy;
  StreamSim sim(cfg, stream_policy, cfg.num_cores);
  const TaskSet sorted = ts.sorted_by_release();
  for (const Task& t : sorted.tasks()) {
    sim.inject_arrival(t);
    // advance_to at the batch instant commits it; the interleaved clock
    // motion must not perturb the schedule (accounting stays lazy).
    sim.advance_to(t.release);
    EXPECT_DOUBLE_EQ(sim.now(), t.release);
  }
  const SimResult& streamed = sim.finalize();
  EXPECT_EQ(schedule_to_csv(streamed.schedule),
            schedule_to_csv(batch.schedule));
  EXPECT_EQ(streamed.replans, batch.replans);
  EXPECT_EQ(streamed.deadline_misses, batch.deadline_misses);
  EXPECT_EQ(streamed.horizon_lo, batch.horizon_lo);
  EXPECT_EQ(streamed.horizon_hi, batch.horizon_hi);
}

TEST(StreamSim, ResetStartsAFreshRun) {
  const SystemConfig cfg = SystemConfig::paper_default();
  SdemOnPolicy policy;
  StreamSim sim(cfg, policy, cfg.num_cores);
  sim.inject_arrival(Task{1, 0.0, 0.5, 120.0});
  const SimResult first = sim.finalize();  // copy before reset
  EXPECT_EQ(first.unfinished, 0);

  sim.reset();
  sim.inject_arrival(Task{1, 0.0, 0.5, 120.0});
  const SimResult& second = sim.finalize();
  EXPECT_EQ(schedule_to_csv(first.schedule),
            schedule_to_csv(second.schedule));
  EXPECT_EQ(first.replans, second.replans);
}

TEST(StreamSim, ThrowsOnRegressions) {
  const SystemConfig cfg = SystemConfig::paper_default();
  SdemOnPolicy policy;
  StreamSim sim(cfg, policy, cfg.num_cores);
  sim.inject_arrival(Task{1, 1.0, 2.0, 100.0});
  sim.commit();
  EXPECT_THROW(sim.inject_arrival(Task{2, 0.5, 2.0, 100.0}),
               std::invalid_argument);
  EXPECT_THROW(sim.advance_to(0.25), std::invalid_argument);
  sim.finalize();
  EXPECT_THROW(sim.inject_arrival(Task{3, 5.0, 6.0, 10.0}),
               std::logic_error);
}

}  // namespace
