// ThreadPool / parallel_for_grid / bench::Grid: the bench harness's
// determinism contract. A --jobs N sweep must produce bit-identical
// per-seed results to the serial loop it replaced, whatever the
// scheduling, because each seed writes only its own slot and folds happen
// in seed order.
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
#include "support/json.hpp"
#include "support/stats.hpp"
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
  // A one-point grid is a plain seed sweep.
  std::vector<std::uint64_t> seeds;
  std::vector<std::size_t> indices;
  parallel_for_grid(nullptr, 1, 5,
                    [&](std::size_t point, std::uint64_t seed, std::size_t i) {
                      EXPECT_EQ(point, 0u);
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
  parallel_for_grid(nullptr, 1, kSeeds,
                    [&](std::size_t, std::uint64_t seed, std::size_t i) {
                      reference[i] = compute(seed);
                    });
  for (int jobs : {1, 2, 3, 8}) {
    ThreadPool pool(jobs);
    std::vector<double> got(kSeeds, -1.0);
    parallel_for_grid(&pool, 1, kSeeds,
                      [&](std::size_t, std::uint64_t seed, std::size_t i) {
                        got[i] = compute(seed);
                      });
    for (int i = 0; i < kSeeds; ++i)
      ASSERT_EQ(reference[static_cast<std::size_t>(i)],
                got[static_cast<std::size_t>(i)])
          << "jobs=" << jobs << " slot=" << i;
  }
}

// Bit-identical, not approximately equal: every metric a comparison cell
// sets, and its counter attribution.
void expect_same_comparison_cells(const Json& a, const Json& b) {
  static const char* const kKeys[] = {
      "sdem_system_saving", "mbkps_system_saving", "sdem_memory_saving",
      "mbkps_memory_saving", "energy_mbkp_j",      "energy_mbkps_j",
      "energy_sdem_j",      "memory_sleep_sdem_s", "memory_sleep_mbkps_s"};
  const auto bits = [](const Json& j) {
    return std::bit_cast<std::uint64_t>(j.as_number());
  };
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Json& x = a.at(i);
    const Json& y = b.at(i);
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(x.at("seed").as_number(), y.at("seed").as_number());
    for (const char* key : kKeys) {
      EXPECT_EQ(bits(x.at(key)), bits(y.at(key))) << key;
    }
    const Json* cx = x.find("counters");
    const Json* cy = y.find("counters");
    ASSERT_EQ(cx == nullptr, cy == nullptr);
    if (cx != nullptr) {
      EXPECT_EQ(cx->dump(0), cy->dump(0));
    }
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
  const auto sweep = [&](ThreadPool* pool) {
    return bench::Grid(pool, 1, kSeeds,
                       [&](std::size_t, std::uint64_t seed, Json& cell) {
                         bench::comparison_cell(cell, make_trace(seed), cfg);
                       });
  };
  bench::Grid serial = sweep(nullptr);
  const Stats a = serial.stats(0, "sdem_system_saving");
  const Stats a_mem = serial.stats(0, "mbkps_memory_saving");
  const Json serial_cells = serial.per_seed(0);
  ASSERT_EQ(serial_cells.size(), static_cast<std::size_t>(kSeeds));
  for (int jobs : {2, 4}) {
    ThreadPool pool(jobs);
    bench::Grid parallel = sweep(&pool);
    const Stats b = parallel.stats(0, "sdem_system_saving");
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.sem(), b.sem());
    EXPECT_EQ(a_mem.mean(), parallel.stats(0, "mbkps_memory_saving").mean());
    expect_same_comparison_cells(serial_cells, parallel.per_seed(0));
  }
}

// Grid sweeps: every (point, seed) cell is a pure function of its inputs,
// so pooled and serial sweeps return identical bytes, per-cell counter
// attribution included.
TEST(ThreadPool, PooledGridSweepIsPureLayout) {
  const auto make_trace = [](std::size_t point, std::uint64_t seed) {
    return make_agreeable(8 + static_cast<int>(point) * 2, seed * 31 + point,
                          0.080);
  };
  const SystemConfig cfg = SystemConfig::paper_default();
  constexpr int kPoints = 3, kSeeds = 4;
  const auto sweep = [&](ThreadPool* pool) {
    return bench::Grid(
        pool, kPoints, kSeeds,
        [&](std::size_t point, std::uint64_t seed, Json& cell) {
          bench::comparison_cell(cell, make_trace(point, seed), cfg);
        });
  };

  bench::Grid serial = sweep(nullptr);
  ThreadPool pool(3);
  bench::Grid pooled = sweep(&pool);
  for (std::size_t p = 0; p < kPoints; ++p) {
    SCOPED_TRACE("point " + std::to_string(p));
    expect_same_comparison_cells(serial.per_seed(p), pooled.per_seed(p));
  }
}

// Grid's folds read only the cells that set a key, in seed order, and a
// per-seed entry lists "seed", the cell's keys in the order it set them,
// then "solver_seconds".
TEST(BenchGrid, FoldsSkipUnsetKeysAndKeepSeedOrder) {
  // Odd seeds set "x"; point 0 sets "x" before "y", point 1 after it.
  const double xs[] = {0.3, 0.0, 0.7, 0.0, 0.2};
  bench::Grid g(nullptr, 2, 5,
                [&](std::size_t point, std::uint64_t seed, Json& cell) {
                  const bool odd = seed % 2 == 1;
                  const double x = xs[seed - 1] + static_cast<double>(point);
                  if (point == 0 && odd) cell.set("x", x);
                  cell.set("y", 1.0 / static_cast<double>(seed + 2));
                  if (point == 1 && odd) cell.set("x", x);
                });

  EXPECT_EQ(g.count(0, "x"), 3u);
  EXPECT_EQ(g.count(0, "y"), 5u);
  EXPECT_EQ(g.count(0, "absent"), 0u);
  EXPECT_EQ(g.sum(0, "absent"), 0.0);
  EXPECT_EQ(g.sum(0, "x"), 0.0 + 0.3 + 0.7 + 0.2);
  EXPECT_EQ(g.max(0, "x"), 0.7);
  EXPECT_EQ(g.max(1, "x"), 1.7);
  double y_sum = 0.0;
  Stats y_ref;
  for (int seed = 1; seed <= 5; ++seed) {
    y_sum += 1.0 / (seed + 2);
    y_ref.add(1.0 / (seed + 2));
  }
  EXPECT_EQ(g.sum(1, "y"), y_sum);
  const Stats y = g.stats(1, "y");
  EXPECT_EQ(y.count(), y_ref.count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(y.mean()),
            std::bit_cast<std::uint64_t>(y_ref.mean()));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(y.sem()),
            std::bit_cast<std::uint64_t>(y_ref.sem()));

  const double total = g.solver_seconds();
  const Json cells = g.per_seed(1, g.per_seed(0));
  ASSERT_EQ(cells.size(), 10u);
  double seconds = 0.0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::uint64_t seed = i % 5 + 1;
    const std::string dump = cells.at(i).dump(0);
    SCOPED_TRACE(dump);
    EXPECT_EQ(cells.at(i).at("seed").as_number(), static_cast<double>(seed));
    const std::size_t s = dump.find("\"seed\"");
    const std::size_t x = dump.find("\"x\"");
    const std::size_t yk = dump.find("\"y\"");
    const std::size_t t = dump.find("\"solver_seconds\"");
    const double cell_seconds = cells.at(i).at("solver_seconds").as_number();
    EXPECT_EQ(s, 1u);
    EXPECT_LT(yk, t);
    EXPECT_EQ(dump.substr(t), "\"solver_seconds\": " +
                                  Json::number_to_string(cell_seconds) + "}");
    if (seed % 2 == 0) {
      EXPECT_EQ(x, std::string::npos);
    } else if (i < 5) {
      EXPECT_LT(s, x);
      EXPECT_LT(x, yk);
    } else {
      EXPECT_LT(yk, x);
      EXPECT_LT(x, t);
    }
    seconds += cell_seconds;
  }
  EXPECT_EQ(seconds, total);
}

}  // namespace
}  // namespace sdem
