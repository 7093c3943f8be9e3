// Power-state timeline (obs/timeline.hpp): the governor decision journal
// recorded by the ladder accounting (sched/energy.cpp) and exported as
// Chrome-trace spans + counter tracks. Properties pinned here: recording
// never changes the accounted energy (observation only), the exported
// events are monotone and well-nested per tid, every decision span carries
// a valid outcome, each island gets exactly one sleep-state residency
// counter track, and with the journal disabled the export is empty.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "model/power.hpp"
#include "model/sleep_ladder.hpp"
#include "obs/obs.hpp"
#include "obs/timeline.hpp"
#include "sched/energy.hpp"
#include "sched/schedule.hpp"
#include "sim/governor.hpp"
#include "support/json.hpp"

namespace sdem {
namespace {

/// Three busy islands on core 0 leaving a sub-break-even gap (0.15 s vs
/// xi deep = 40 ms is actually above break-even; use spacing around xi),
/// a long gap, and a trailing gap inside the [0, 2] horizon.
Schedule make_gappy_schedule() {
  Schedule sch;
  sch.add({1, 0, 0.0, 0.10, 1000.0});
  sch.add({2, 0, 0.25, 0.30, 1000.0});
  sch.add({3, 0, 1.50, 1.60, 1000.0});
  return sch;
}

SystemConfig ladder_cfg(int depth) {
  SystemConfig cfg = SystemConfig::paper_default();
  cfg.memory.ladder =
      SleepLadder::geometric(cfg.memory.alpha_m, cfg.memory.xi_m, depth);
  return cfg;
}

EnergyOptions governor_opts(IdleGovernor* gov, int island,
                            const char* label) {
  EnergyOptions opts;
  opts.memory_gaps = SleepDiscipline::kGovernor;
  opts.horizon_lo = 0.0;
  opts.horizon_hi = 2.0;
  opts.governor = gov;
  opts.timeline_island = island;
  opts.timeline_label = label;
  return opts;
}

TEST(Timeline, RecordingIsObservationOnly) {
  const Schedule sch = make_gappy_schedule();
  const SystemConfig cfg = ladder_cfg(2);

  obs::timeline::stop();
  obs::timeline::clear();
  IdleGovernor gov_off;
  const EnergyBreakdown off =
      compute_energy(sch, cfg, governor_opts(&gov_off, 0, "off"));

  obs::timeline::start();
  IdleGovernor gov_on;
  const EnergyBreakdown on =
      compute_energy(sch, cfg, governor_opts(&gov_on, 0, "on"));
  obs::timeline::stop();

  EXPECT_DOUBLE_EQ(on.memory_total(), off.memory_total());
  EXPECT_DOUBLE_EQ(on.system_total(), off.system_total());
  EXPECT_DOUBLE_EQ(on.governor_mispredicts, off.governor_mispredicts);
  EXPECT_DOUBLE_EQ(on.governor_aborts, off.governor_aborts);
  EXPECT_DOUBLE_EQ(on.memory_sleep_time, off.memory_sleep_time);
}

TEST(Timeline, ExportIsMonotoneWellNestedWithResidencyTracks) {
  const Schedule sch = make_gappy_schedule();
  const SystemConfig cfg = ladder_cfg(4);

  obs::timeline::start();
  IdleGovernor gov0;
  (void)compute_energy(sch, cfg, governor_opts(&gov0, 0, "islandA"));
  IdleGovernor gov1;
  (void)compute_energy(sch, cfg, governor_opts(&gov1, 1, "islandB"));
  obs::timeline::counter_sample("cpu/core0/speed", 0.0, 1000.0);
  obs::timeline::counter_sample("cpu/core0/speed", 0.1, 0.0);
  obs::timeline::stop();

  // Round-trip through text like the tools do.
  const Json doc = Json::parse(obs::timeline::to_json().dump(2));
  const Json* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::map<int, std::vector<std::string>> stacks;
  std::map<int, double> last_ts;
  std::map<std::string, std::size_t> counter_tracks;
  std::size_t decisions = 0;
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
      ++decisions;
      const std::string name = e.at("name").as_string();
      EXPECT_EQ(name.rfind("gap:", 0), 0u) << name;
      const std::string outcome = e.at("args").at("outcome").as_string();
      EXPECT_TRUE(outcome == "idle" || outcome == "cycle" ||
                  outcome == "mispredict" || outcome == "abort")
          << outcome;
      EXPECT_TRUE(e.at("args").has("predicted_s"));
      EXPECT_TRUE(e.at("args").has("gap_s"));
      EXPECT_TRUE(e.at("args").has("state"));
      stacks[tid].push_back(name);
    } else if (ph == "E") {
      ASSERT_FALSE(stacks[tid].empty()) << "E without B on tid " << tid;
      EXPECT_EQ(stacks[tid].back(), e.at("name").as_string());
      stacks[tid].pop_back();
    } else if (ph == "C") {
      ++counter_tracks[e.at("name").as_string()];
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed B on tid " << tid;
  }
  // Three gaps per pass (two internal + trailing).
  EXPECT_EQ(decisions, 6u);
  // Exactly one residency track per island, plus the custom CPU track.
  EXPECT_EQ(counter_tracks.count("mem/island0/sleep_state"), 1u);
  EXPECT_EQ(counter_tracks.count("mem/island1/sleep_state"), 1u);
  EXPECT_GE(counter_tracks["cpu/core0/speed"], 2u);
  std::size_t residency_tracks = 0;
  for (const auto& [name, n] : counter_tracks) {
    if (name.rfind("mem/island", 0) == 0) ++residency_tracks;
  }
  EXPECT_EQ(residency_tracks, 2u);
}

TEST(Timeline, DisabledJournalStaysEmpty) {
  obs::timeline::stop();
  obs::timeline::clear();
  EXPECT_FALSE(obs::timeline::enabled());
  EXPECT_EQ(obs::timeline::begin_pass(0, "x"), -1);
  obs::timeline::counter_sample("ignored", 0.0, 1.0);  // disabled: dropped
  const Json doc = obs::timeline::to_json();
  EXPECT_EQ(doc.at("traceEvents").size(), 0u);

  const Schedule sch = make_gappy_schedule();
  IdleGovernor gov;
  (void)compute_energy(sch, ladder_cfg(2), governor_opts(&gov, 0, "x"));
  EXPECT_EQ(obs::timeline::to_json().at("traceEvents").size(), 0u);
}

}  // namespace
}  // namespace sdem
