// ThreadPool / parallel_for_seeds / parallel_for_grid: the bench
// harness's determinism contract. A --jobs N sweep must produce
// bit-identical per-seed results to the serial loop it replaced, whatever
// the scheduling, because each seed writes only its own slot and folds
// happen in seed order.
#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "workload/generator.hpp"

namespace sdem {
namespace {

TEST(ThreadPool, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ClampsThreadCountToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ParallelForVisitsEachIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> visits(1000);
  pool.parallel_for(visits.size(),
                    [&](std::size_t i) { visits[i].fetch_add(1); });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPool, ParallelForHandlesMoreWorkThanThreads) {
  ThreadPool pool(2);
  std::atomic<std::int64_t> sum{0};
  pool.parallel_for(10000, [&](std::size_t i) {
    sum.fetch_add(static_cast<std::int64_t>(i));
  });
  EXPECT_EQ(sum.load(), 10000LL * 9999 / 2);
}

TEST(ThreadPool, ParallelForZeroIsANoOp) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, WaitIdleRethrowsTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait_idle(), std::runtime_error);
  // The pool survives the failure and keeps serving.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, ReusableAcrossManyParallelForRounds) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_for(17, [&](std::size_t) { ++count; });
    ASSERT_EQ(count.load(), 17);
  }
}

TEST(ParallelForSeeds, SerialWhenPoolIsNull) {
  std::vector<std::uint64_t> seeds;
  std::vector<std::size_t> indices;
  parallel_for_seeds(nullptr, 5, [&](std::uint64_t seed, std::size_t i) {
    seeds.push_back(seed);
    indices.push_back(i);
  });
  EXPECT_EQ(seeds, (std::vector<std::uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(indices, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForSeeds, SlotsMatchSerialBitForBit) {
  // A seed-keyed pseudo-computation: parallel slots must equal the serial
  // reference exactly, for several job counts.
  const auto compute = [](std::uint64_t seed) {
    double acc = 0.0;
    for (int k = 1; k <= 64; ++k)
      acc += static_cast<double>((seed * 2654435761u + k) % 1000) / 997.0;
    return acc;
  };
  constexpr int kSeeds = 64;
  std::vector<double> reference(kSeeds);
  parallel_for_seeds(nullptr, kSeeds, [&](std::uint64_t seed, std::size_t i) {
    reference[i] = compute(seed);
  });
  for (int jobs : {1, 2, 3, 8}) {
    ThreadPool pool(jobs);
    std::vector<double> got(kSeeds, -1.0);
    parallel_for_seeds(&pool, kSeeds, [&](std::uint64_t seed, std::size_t i) {
      got[i] = compute(seed);
    });
    for (int i = 0; i < kSeeds; ++i)
      ASSERT_EQ(reference[static_cast<std::size_t>(i)],
                got[static_cast<std::size_t>(i)])
          << "jobs=" << jobs << " slot=" << i;
  }
}

// The real acceptance property: the bench harness's seed sweep produces
// bit-identical per-seed savings and identical folded statistics under any
// job count, on the actual paper workload + solver stack.
TEST(ParallelForSeeds, BenchComparisonDeterministicAcrossJobCounts) {
  const auto cfg = bench::paper_cfg();
  const auto make_trace = [](std::uint64_t seed) {
    SyntheticParams p;
    p.num_tasks = 30;
    p.max_interarrival = 0.200;
    return make_synthetic(p, seed * 977 + 3);
  };
  constexpr int kSeeds = 6;
  const auto serial =
      bench::collect_seed_comparisons(make_trace, cfg, kSeeds, nullptr);
  ASSERT_EQ(serial.size(), static_cast<std::size_t>(kSeeds));
  for (int jobs : {2, 4}) {
    ThreadPool pool(jobs);
    const auto parallel =
        bench::collect_seed_comparisons(make_trace, cfg, kSeeds, &pool);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].seed, parallel[i].seed);
      // Bit-identical, not approximately equal.
      EXPECT_EQ(serial[i].sdem_system, parallel[i].sdem_system);
      EXPECT_EQ(serial[i].mbkps_system, parallel[i].mbkps_system);
      EXPECT_EQ(serial[i].sdem_memory, parallel[i].sdem_memory);
      EXPECT_EQ(serial[i].mbkps_memory, parallel[i].mbkps_memory);
      EXPECT_EQ(serial[i].energy_mbkp, parallel[i].energy_mbkp);
      EXPECT_EQ(serial[i].energy_mbkps, parallel[i].energy_mbkps);
      EXPECT_EQ(serial[i].energy_sdem, parallel[i].energy_sdem);
    }
    const bench::SavingStats a = bench::to_saving_stats(serial);
    const bench::SavingStats b = bench::to_saving_stats(parallel);
    EXPECT_EQ(a.sdem_system.mean(), b.sdem_system.mean());
    EXPECT_EQ(a.sdem_system.sem(), b.sdem_system.sem());
    EXPECT_EQ(a.mbkps_memory.mean(), b.mbkps_memory.mean());
  }
}

// Grid sweeps (parallel_for_grid): every (point, seed) cell is a pure
// function of its inputs, so pooled and serial sweeps return identical
// bytes, per-cell counter attribution included.
TEST(ThreadPool, PooledGridSweepIsPureLayout) {
  const auto make_trace = [](std::size_t point, std::uint64_t seed) {
    return make_agreeable(8 + static_cast<int>(point) * 2, seed * 31 + point,
                          0.080);
  };
  const SystemConfig cfg = SystemConfig::paper_default();
  const auto cfg_for = [&](std::size_t) -> const SystemConfig& { return cfg; };
  constexpr int kPoints = 3, kSeeds = 4;

  const auto serial =
      bench::collect_grid_comparisons(make_trace, cfg_for, kPoints, kSeeds);
  ThreadPool pool(3);
  const auto pooled = bench::collect_grid_comparisons(make_trace, cfg_for,
                                                      kPoints, kSeeds, &pool);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    ASSERT_EQ(serial[p].size(), pooled[p].size());
    for (std::size_t s = 0; s < serial[p].size(); ++s) {
      const bench::SeedComparison& x = serial[p][s];
      const bench::SeedComparison& y = pooled[p][s];
      SCOPED_TRACE("point " + std::to_string(p) + " seed " +
                   std::to_string(s + 1));
      EXPECT_EQ(x.seed, y.seed);
      EXPECT_EQ(bits(x.sdem_system), bits(y.sdem_system));
      EXPECT_EQ(bits(x.mbkps_system), bits(y.mbkps_system));
      EXPECT_EQ(bits(x.sdem_memory), bits(y.sdem_memory));
      EXPECT_EQ(bits(x.mbkps_memory), bits(y.mbkps_memory));
      EXPECT_EQ(bits(x.energy_mbkp), bits(y.energy_mbkp));
      EXPECT_EQ(bits(x.energy_mbkps), bits(y.energy_mbkps));
      EXPECT_EQ(bits(x.energy_sdem), bits(y.energy_sdem));
      EXPECT_EQ(bits(x.sleep_sdem), bits(y.sleep_sdem));
      EXPECT_EQ(bits(x.sleep_mbkps), bits(y.sleep_mbkps));
      EXPECT_EQ(x.counters, y.counters);
    }
  }
}

}  // namespace
}  // namespace sdem
