// Observability layer (src/obs/, docs/observability.md): the acceptance
// properties the instrumentation must keep — deterministic-domain counters
// identical whatever the thread count, reset that keeps cached call-site
// cells valid, a Chrome-trace sink whose B/E duration pairs are monotone
// and well-nested per thread, and a runtime recording gate that idles
// every macro site and timer without touching the numerics or the
// service's own cells. Also home to the bench registry's name-filter
// contract, its job-count and recording independence check over every
// deterministic experiment, and a Table 4 cell check, next to its
// find_experiment use.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_registry.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "obs/window.hpp"
#include "service/service.hpp"
#include "support/json.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace sdem {
namespace {

using obs::Registry;

TEST(Obs, MacroCountersReachTheRegistry) {
  Registry::instance().reset();
  SDEM_OBS_COUNT("test_obs/macro", 3);
  SDEM_OBS_INC("test_obs/macro");
  SDEM_OBS_INC("test_obs/macro");
  const obs::Snapshot snap = Registry::instance().snapshot();
  const std::uint64_t* c = snap.counter("test_obs/macro");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(*c, 5u);
}

TEST(Obs, DistTracksCountMinMeanMax) {
  Registry::instance().reset();
  SDEM_OBS_DIST("test_obs/dist", 0.5);
  SDEM_OBS_DIST("test_obs/dist", 2.0);
  SDEM_OBS_DIST("test_obs/dist", 1.5);
  const obs::Snapshot snap = Registry::instance().snapshot();
  const obs::DistValue* d = snap.dist("test_obs/dist");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->count, 3u);
  EXPECT_DOUBLE_EQ(d->min, 0.5);
  EXPECT_DOUBLE_EQ(d->max, 2.0);
  EXPECT_NEAR(d->mean(), 4.0 / 3.0, 1e-6);
}

TEST(Obs, ResetZeroesButKeepsRegistration) {
  Registry::instance().reset();
  SDEM_OBS_COUNT("test_obs/reset_me", 7);
  Registry::instance().reset();
  const obs::Snapshot snap = Registry::instance().snapshot();
  const std::uint64_t* c = snap.counter("test_obs/reset_me");
  ASSERT_NE(c, nullptr);  // registration survives (cached cells stay valid)
  EXPECT_EQ(*c, 0u);
  // The cached call-site cell still works after the reset.
  SDEM_OBS_COUNT("test_obs/reset_me", 2);
  const obs::Snapshot snap2 = Registry::instance().snapshot();
  EXPECT_EQ(*snap2.counter("test_obs/reset_me"), 2u);
}

TEST(Obs, ShardsFromOtherThreadsMergeIntoTheSnapshot) {
  Registry::instance().reset();
  SDEM_OBS_COUNT("test_obs/merged", 1);
  std::thread t([] { SDEM_OBS_COUNT("test_obs/merged", 10); });
  t.join();
  const obs::Snapshot snap = Registry::instance().snapshot();
  EXPECT_EQ(*snap.counter("test_obs/merged"), 11u);
}

TEST(Obs, CellLookupsDoNotRaceSnapshots) {
  // A thread looks its own cells up without the registry lock. One thread
  // creates and re-resolves cells of every kind while another snapshots
  // and merges windows: under TSan this checks the unlocked lookups. Cell
  // values stay untouched, since snapshots need quiesced writers anyway.
  std::atomic<bool> done{false};
  std::thread reader([&] {
    while (!done.load()) {
      (void)Registry::instance().snapshot();
      (void)Registry::instance().window_values(obs::now_ns());
    }
  });
  std::thread owner([] {
    for (int i = 0; i < 4000; ++i) {
      const std::string name = "test_obs/lookup_race/" + std::to_string(i % 97);
      const char* n = name.c_str();
      EXPECT_EQ(Registry::instance().counter_cell(n, obs::Domain::kRuntime),
                Registry::instance().counter_cell(n, obs::Domain::kRuntime));
      EXPECT_EQ(Registry::instance().dist_cell(n, obs::Domain::kRuntime),
                Registry::instance().dist_cell(n, obs::Domain::kRuntime));
      EXPECT_EQ(Registry::instance().timer_cell(n),
                Registry::instance().timer_cell(n));
      EXPECT_EQ(Registry::instance().window_cell(n, obs::WindowSpec{}),
                Registry::instance().window_cell(n, obs::WindowSpec{}));
    }
  });
  owner.join();
  done.store(true);
  reader.join();
  const obs::Snapshot snap = Registry::instance().snapshot();
  EXPECT_NE(snap.counter("test_obs/lookup_race/96"), nullptr);
}

// The tentpole acceptance property: the deterministic counter domain of a
// real experiment is a pure function of the work done, so running the same
// sweep serially and on four workers yields byte-identical counters JSON.
TEST(Obs, CounterMergeIsJobCountIndependent) {
  bench::RunOptions opt;
  opt.seeds = 2;
  const bench::Experiment* e = bench::find_experiment("online_vs_offline");
  ASSERT_NE(e, nullptr);

  Registry::instance().reset();
  opt.pool = nullptr;  // serial reference
  (void)e->run(opt);
  const std::string serial =
      Registry::instance().snapshot().counters_json().dump(2);

  ThreadPool pool(4);
  Registry::instance().reset();
  opt.pool = &pool;
  (void)e->run(opt);
  const std::string pooled =
      Registry::instance().snapshot().counters_json().dump(2);

  EXPECT_EQ(serial, pooled);
  // Not vacuous: the run populated simulator and solver counters.
  EXPECT_NE(serial.find("sim/runs"), std::string::npos);
  EXPECT_NE(serial.find("agreeable/solves"), std::string::npos);
}

// Closes the recording gate for a scope and reopens it on the way out, so
// a failed assertion cannot leave the rest of the binary unrecorded.
struct GateClosed {
  GateClosed() { obs::set_recording(false); }
  ~GateClosed() { obs::set_recording(true); }
  GateClosed(const GateClosed&) = delete;
  GateClosed& operator=(const GateClosed&) = delete;
};

// The runner's --stable sweeps run with the gate closed: nothing may be
// recorded, no cell may carry a counters delta, and the data must be the
// data of a recording run.
TEST(ObsGate, ClosedGateRecordsNothingAndKeepsTheData) {
  const bench::Experiment* e = bench::find_experiment("table4");
  ASSERT_NE(e, nullptr);
  bench::RunOptions opt;
  opt.seeds = 2;

  Registry::instance().reset();
  Json quiet;
  {
    const GateClosed closed;
    quiet = e->run(opt).data;
  }
  const obs::Snapshot snap = Registry::instance().snapshot();
  for (const auto& [name, v] : snap.counters) EXPECT_EQ(v, 0u) << name;
  for (const auto& [name, v] : snap.runtime_counters) EXPECT_EQ(v, 0u) << name;
  for (const auto& [name, d] : snap.dists) EXPECT_EQ(d.count, 0u) << name;
  for (const auto& [name, d] : snap.runtime_dists) EXPECT_EQ(d.count, 0u) << name;
  for (const auto& [name, t] : snap.timers) EXPECT_EQ(t.count, 0u) << name;
  quiet.erase_key("solver_seconds");
  EXPECT_EQ(quiet.dump(2), quiet.without_key("counters").dump(2))
      << "a cell carries a counters delta while the gate is closed";

  Registry::instance().reset();
  Json recorded = e->run(opt).data;
  recorded.erase_key("solver_seconds");
  // Not vacuous: the recording run attributes counters to its cells.
  EXPECT_NE(recorded.dump(2), recorded.without_key("counters").dump(2));
  const obs::Snapshot on = Registry::instance().snapshot();
  ASSERT_NE(on.counter("sim/runs"), nullptr);
  EXPECT_GT(*on.counter("sim/runs"), 0u);
  recorded.erase_key("counters");
  EXPECT_EQ(quiet.dump(2), recorded.dump(2));
}

// A timer decides at open whether it records and closes the same way, so
// flipping the gate inside a scope leaves the per-thread timer stack
// balanced: a nested pair opened afterwards records only its own edge.
TEST(ObsGate, TimerClosesTheWayItOpened) {
  Registry::instance().reset();
  {
    const GateClosed closed;
    {
      SDEM_OBS_TIMER("test_obs/gate/opened_closed");
      obs::set_recording(true);
    }
    {
      SDEM_OBS_TIMER("test_obs/gate/opened_open");
      obs::set_recording(false);
    }
  }
  {
    SDEM_OBS_TIMER("test_obs/gate/outer");
    { SDEM_OBS_TIMER("test_obs/gate/inner"); }
  }
  const obs::Snapshot snap = Registry::instance().snapshot();
  std::map<std::string, std::uint64_t> counts;
  for (const auto& [name, t] : snap.timers) {
    if (t.count > 0 && name.rfind("test_obs/gate/", 0) == 0)
      counts[name] = t.count;
  }
  const std::string edge =
      std::string("test_obs/gate/outer") + obs::kTimerEdgeSep +
      "test_obs/gate/inner";
  const std::map<std::string, std::uint64_t> want = {
      {"test_obs/gate/opened_open", 1},
      {"test_obs/gate/outer", 1},
      {"test_obs/gate/inner", 1},
      {edge, 1},
  };
  EXPECT_EQ(counts, want);
}

// The service's shard cells are resolved and written by the drain itself,
// not through the macros: STATS keeps counting replans with the gate shut.
TEST(ObsGate, ServiceCellsIgnoreTheGate) {
  const GateClosed closed;
  service::ServiceOptions opt;
  opt.eager = true;
  std::map<std::uint64_t, Json> responses;
  service::Service svc(opt, nullptr,
                       [&](const service::Request& r, Json resp) {
                         responses.emplace(r.seq, std::move(resp));
                       });
  Registry::instance().reset();
  for (int id = 1; id <= 3; ++id) {
    Json task = Json::object();
    task.set("id", id);
    task.set("release", 0.1 * id);
    task.set("deadline", 1.0 + 0.1 * id);
    task.set("work", 100.0);
    Json line = Json::object();
    line.set("op", "SUBMIT");
    line.set("island", 0);
    line.set("task", std::move(task));
    const auto seq = static_cast<std::uint64_t>(id);
    svc.route_raw(0, service::Op::kSubmit, line.dump(0), seq, 0, seq);
    svc.flush();
    ASSERT_TRUE(responses.at(seq).at("ok").as_bool());
  }
  const Json stats = svc.stats(99);
  EXPECT_EQ(stats.at("requests").as_number(), 3);
  const Json& shard0 = stats.at("shards").at(0u);
  ASSERT_TRUE(shard0.has("replan_latency"));
  EXPECT_EQ(shard0.at("replan_latency").at("count").as_number(), 3);
}

TEST(BenchRegistry, EachNameSelectsExactlyOne) {
  // `--filter <name>` matches by substring; tools/check_bench_regression.py
  // and the comma-joined perfbench filter rely on a full name selecting
  // only its own experiment, so no name may contain another.
  const auto& all = bench::all_experiments();
  ASSERT_FALSE(all.empty());
  for (const bench::Experiment& e : all) {
    const std::vector<const bench::Experiment*> hit =
        bench::match_experiments(e.name);
    ASSERT_EQ(hit.size(), 1u) << e.name;
    EXPECT_EQ(hit[0], &e) << e.name;
  }
}

// Every deterministic sweep is a pure function of its cells: a serial run,
// a pooled one and a serial one with the recording gate shut (the runner's
// --stable mode) print the same tables and footers and produce the same
// data once the cell timings and counter attribution are erased. The two
// excluded experiments time their work.
TEST(BenchRegistry,
     EveryDeterministicExperimentIsJobCountAndRecordingIndependent) {
  struct Output {
    std::string data, tables, footers;
  };
  const auto run = [](const bench::Experiment& e, ThreadPool* pool) {
    bench::RunOptions opt;
    opt.seeds = 2;
    opt.pool = pool;
    bench::ExperimentResult r = e.run(opt);
    r.data.erase_key("solver_seconds");
    r.data.erase_key("counters");
    Output out{r.data.dump(2), "", ""};
    for (const Table& t : r.tables) out.tables += t.to_text() + t.to_csv();
    for (const std::string& f : r.footers) out.footers += f + "\n";
    return out;
  };
  ThreadPool pool(3);
  int checked = 0;
  for (const bench::Experiment& e : bench::all_experiments()) {
    if (e.name == "table1" || e.name == "bounded_partition") continue;
    SCOPED_TRACE(e.name);
    const Output serial = run(e, nullptr);
    const Output pooled = run(e, &pool);
    EXPECT_EQ(serial.data, pooled.data);
    EXPECT_EQ(serial.tables, pooled.tables);
    EXPECT_EQ(serial.footers, pooled.footers);
    Output quiet;
    {
      const GateClosed closed;
      quiet = run(e, nullptr);
    }
    EXPECT_EQ(serial.data, quiet.data);
    EXPECT_EQ(serial.tables, quiet.tables);
    EXPECT_EQ(serial.footers, quiet.footers);
    ++checked;
  }
  EXPECT_GE(checked, 18);
}

TEST(BenchRegistry, Table4PrintsMbkpEnergyInTheMbkpColumn) {
  const bench::Experiment* e = bench::find_experiment("table4");
  ASSERT_NE(e, nullptr);
  bench::RunOptions opt;
  opt.seeds = 2;
  const bench::ExperimentResult r = e->run(opt);
  const Json* anchor = r.data.find("anchor");
  ASSERT_NE(anchor, nullptr);
  const Json* mbkp_j = anchor->find("energy_mbkp_j_avg");
  ASSERT_NE(mbkp_j, nullptr);
  // tables[0] is the parameter grid; tables[1] compares the policies.
  ASSERT_EQ(r.tables.size(), 2u);
  const Table& t = r.tables[1];
  ASSERT_EQ(t.header()[1], "MBKP");
  ASSERT_EQ(t.row(0)[0], "system energy (J, avg)");
  EXPECT_EQ(t.row(0)[1], Table::fmt(mbkp_j->as_number(), 4));
}

// Walk a Chrome-trace document: per tid, timestamps must be monotone
// non-decreasing and B/E events must form a balanced, well-nested stack
// (every E closes the innermost open B of the same name).
void check_trace_events(const Json& doc, std::size_t* total) {
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  std::map<int, std::vector<std::string>> stacks;
  std::map<int, double> last_ts;
  for (std::size_t i = 0; i < events->size(); ++i) {
    const Json& e = events->at(i);
    const std::string ph = e.at("ph").as_string();
    const int tid = static_cast<int>(e.at("tid").as_number());
    const double ts = e.at("ts").as_number();
    const auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_GE(ts, it->second) << "timestamps regress on tid " << tid;
    }
    last_ts[tid] = ts;
    if (ph == "B") {
      stacks[tid].push_back(e.at("name").as_string());
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty()) << "E without B on tid " << tid;
      EXPECT_EQ(stacks[tid].back(), e.at("name").as_string());
      stacks[tid].pop_back();
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed B events on tid " << tid;
  }
  *total = events->size();
}

TEST(ObsTrace, EventsAreMonotoneAndWellNestedPerThread) {
  obs::trace::start();
  {
    SDEM_OBS_TIMER("test_obs/outer");
    {
      SDEM_OBS_TIMER("test_obs/inner");
    }
    std::thread t([] { SDEM_OBS_TIMER("test_obs/worker"); });
    t.join();
  }
  obs::trace::stop();

  // Round-trip through text: the file the tools write must parse with the
  // same JSON implementation chrome://tracing-bound consumers start from.
  const Json doc = Json::parse(obs::trace::to_json().dump(2));
  std::size_t total = 0;
  check_trace_events(doc, &total);
  EXPECT_GE(total, 6u);  // three timers -> three B/E pairs
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ms");
}

}  // namespace
}  // namespace sdem
