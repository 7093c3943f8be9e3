// Batched/SIMD solver kernels (src/core/block_kernel.hpp, support/simd.hpp)
// and the pooled grid-sweep cells (parallel_for_grid): the bit-equality
// contracts of the batched kernels.
//
//   * block_piece_batch must equal block_piece_scalar lane for lane,
//     bitwise, on any input mix — race/fill/clamped regimes, infeasible
//     lanes, nonpositive windows, λ ∈ {2, 2.5, 3}, s_up bounded and
//     unbounded — whether the vector path engages (n >= kBlockBatchMinLanes
//     on a SIMD build) or the scalar loop runs. This is the property that
//     lets SDEM_SIMD=ON and OFF builds produce byte-identical --stable
//     JSON.
//   * BlockContext::set_cross_check must audit the batched evaluator: a
//     full agreeable solve under audit reports zero mismatches against the
//     exact O(k) block_energy_at.
//   * Pooled grid sweeps must be pure layout: collect_grid_comparisons on a
//     pool and serially returns identical bytes, per-cell counter
//     attribution included.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "bench_util.hpp"
#include "core/agreeable.hpp"
#include "core/block_context.hpp"
#include "core/block_kernel.hpp"
#include "support/rng.hpp"
#include "support/simd.hpp"
#include "support/thread_pool.hpp"
#include "workload/generator.hpp"

namespace sdem {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// One randomized SoA batch: lanes drawn to hit every regime of
/// block_piece_scalar, including infeasible (q > W * slack) and
/// nonpositive windows.
struct RandomBatch {
  std::vector<double> w, q, wpow, e_race, e_up, win;

  RandomBatch(std::size_t n, const BlockKernelConsts& c, Xoshiro256& rng) {
    for (std::size_t i = 0; i < n; ++i) {
      const double wi = rng.uniform(0.05, 4.0);
      w.push_back(wi);
      // q = w / s_up; make some lanes infeasible for their window below.
      q.push_back(std::isinf(c.s_up) ? 0.0 : wi / c.s_up);
      wpow.push_back(0.8 * std::pow(wi, c.lambda));
      e_race.push_back(rng.uniform(0.1, 5.0));
      e_up.push_back(std::isinf(c.s_up) ? kInf : rng.uniform(0.1, 5.0));
      const double r = rng.uniform();
      double wn;
      if (r < 0.08) {
        wn = r < 0.04 ? 0.0 : -rng.uniform(0.0, 1.0);  // nonpositive
      } else if (r < 0.2 && !std::isinf(c.s_up)) {
        wn = q.back() * rng.uniform(0.2, 0.999);  // infeasible: W < q
      } else if (r < 0.55) {
        wn = wi / c.s_m_raw * rng.uniform(1.001, 4.0);  // race regime
      } else if (r < 0.8) {
        wn = wi / c.s_m_raw * rng.uniform(0.3, 0.999);  // fill (or clamp)
      } else {
        wn = rng.uniform(0.01, 6.0);  // anything
      }
      win.push_back(wn);
    }
  }
};

void expect_batch_matches_scalar(const BlockKernelConsts& c, std::size_t n,
                                 std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const RandomBatch b(n, c, rng);
  std::vector<double> out(n, -1.0);
  block_piece_batch(c, b.w.data(), b.q.data(), b.wpow.data(), b.e_race.data(),
                    b.e_up.data(), b.win.data(), out.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ref = block_piece_scalar(c, b.w[i], b.q[i], b.wpow[i],
                                          b.e_race[i], b.e_up[i], b.win[i]);
    EXPECT_TRUE(same_bits(out[i], ref))
        << "lane " << i << " of " << n << " (lambda=" << c.lambda
        << ", s_up=" << c.s_up << "): batch " << out[i] << " vs scalar "
        << ref;
  }
}

TEST(SimdKernels, BatchedMatchesScalarBitwise) {
  // n = 64 engages the vector loop on SIMD builds (>= kBlockBatchMinLanes);
  // n = 3 and 9 pin the small-batch scalar path and the odd remainder lane.
  for (const double lambda : {2.0, 2.5, 3.0}) {
    for (const double s_up : {kInf, 1.9}) {
      BlockKernelConsts c;
      c.alpha = 0.14;
      c.lambda = lambda;
      c.s_m_raw = 0.849;
      c.s_up = s_up;
      std::uint64_t seed = 7;
      for (const std::size_t n : {std::size_t{3}, std::size_t{9},
                                  std::size_t{64}, std::size_t{257}}) {
        expect_batch_matches_scalar(c, n, seed += 13);
      }
    }
  }
}

TEST(SimdKernels, BatchRespectsMinLaneCutoffSemantics) {
  // Below the cutoff the batch must still be bit-equal (it takes the scalar
  // loop); at exactly kBlockBatchMinLanes the vector path may engage.
  BlockKernelConsts c;
  c.alpha = 0.2;
  c.lambda = 3.0;
  c.s_m_raw = 0.7;
  c.s_up = 2.0;
  expect_batch_matches_scalar(c, kBlockBatchMinLanes - 1, 101);
  expect_batch_matches_scalar(c, kBlockBatchMinLanes, 102);
}

TEST(SimdKernels, CrossCheckAuditsBatchedEvaluatorCleanly) {
  // A full agreeable solve under audit: every fast probe — the batched
  // evaluator included — is recomputed with the exact O(k) path. Zero
  // failures, and the audited result is bit-identical to the unaudited one.
  const SystemConfig cfg = SystemConfig::paper_default();
  for (const std::uint64_t seed : {1ull, 5ull, 9ull}) {
    const TaskSet ts = make_agreeable(16, seed, 0.060);
    const OfflineResult plain = solve_agreeable(ts, cfg);

    BlockContext::reset_cross_check_counters();
    BlockContext::set_cross_check(true);
    const OfflineResult audited = solve_agreeable(ts, cfg);
    BlockContext::set_cross_check(false);

    EXPECT_GT(BlockContext::cross_check_probes(), 0u);
    EXPECT_EQ(BlockContext::cross_check_failures(), 0u);
    EXPECT_TRUE(same_bits(audited.energy, plain.energy));
    EXPECT_TRUE(same_bits(audited.sleep_time, plain.sleep_time));
  }
}

/// Byte-level equality of two grid results, counters included.
void expect_grids_identical(
    const std::vector<std::vector<bench::SeedComparison>>& a,
    const std::vector<std::vector<bench::SeedComparison>>& b,
    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p].size(), b[p].size()) << what;
    for (std::size_t s = 0; s < a[p].size(); ++s) {
      const bench::SeedComparison& x = a[p][s];
      const bench::SeedComparison& y = b[p][s];
      EXPECT_EQ(x.seed, y.seed) << what;
      EXPECT_TRUE(same_bits(x.sdem_system, y.sdem_system)) << what;
      EXPECT_TRUE(same_bits(x.mbkps_system, y.mbkps_system)) << what;
      EXPECT_TRUE(same_bits(x.sdem_memory, y.sdem_memory)) << what;
      EXPECT_TRUE(same_bits(x.mbkps_memory, y.mbkps_memory)) << what;
      EXPECT_TRUE(same_bits(x.energy_mbkp, y.energy_mbkp)) << what;
      EXPECT_TRUE(same_bits(x.energy_mbkps, y.energy_mbkps)) << what;
      EXPECT_TRUE(same_bits(x.energy_sdem, y.energy_sdem)) << what;
      EXPECT_TRUE(same_bits(x.sleep_sdem, y.sleep_sdem)) << what;
      EXPECT_TRUE(same_bits(x.sleep_mbkps, y.sleep_mbkps)) << what;
      EXPECT_EQ(x.counters, y.counters)
          << what << ": counter attribution differs at point " << p
          << " seed " << s + 1;
    }
  }
}

TEST(SimdKernels, TiledGridIsPureLayout) {
  // pooled ≡ serial, per-cell counters included.
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
  expect_grids_identical(serial, pooled, "serial vs pooled");
}

}  // namespace
}  // namespace sdem
