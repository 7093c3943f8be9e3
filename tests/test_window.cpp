// Sliding-window histograms (obs/window.hpp): the acceptance properties
// behind the METRICS verb's windowed quantiles — slices rotate lazily and
// reclaim their ring slot across boundaries, samples age out of the merge
// once the window passes them, empty windows read as zeros, and the
// registry-level shard merge is invariant to how samples are partitioned
// across threads (the jobs-1-vs-4 determinism contract). Window cells are
// written directly, not through the recording gate's macro sites.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "obs/window.hpp"

namespace sdem {
namespace {

constexpr std::uint64_t kSec = 1'000'000'000ull;

TEST(Window, EmptyWindowReadsZeros) {
  obs::WindowCell cell;
  obs::WindowValue v;
  obs::merge_window(v, cell, 5 * kSec);
  EXPECT_EQ(v.count, 0u);
  EXPECT_DOUBLE_EQ(v.sum(), 0.0);
  EXPECT_DOUBLE_EQ(v.mean(), 0.0);
  EXPECT_DOUBLE_EQ(v.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(v.percentile(0.999), 0.0);
}

TEST(Window, SamplesAgeOutAcrossSliceBoundaries) {
  obs::WindowCell cell;  // default spec: 1 s slices, 8 of them
  cell.add(100.0, 0 * kSec + 1);  // slice 0
  cell.add(200.0, 1 * kSec + 1);  // slice 1

  // as_of in slice 1: the window [slice -6, slice 1] covers both.
  obs::WindowValue both;
  obs::merge_window(both, cell, 1 * kSec + 2);
  EXPECT_EQ(both.count, 2u);
  EXPECT_DOUBLE_EQ(both.min, 100.0);
  EXPECT_DOUBLE_EQ(both.max, 200.0);

  // as_of in slice 8: the window is [slice 1, slice 8] — slice 0 aged out.
  obs::WindowValue one;
  obs::merge_window(one, cell, 8 * kSec);
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.min, 200.0);

  // as_of in slice 9: everything aged out.
  obs::WindowValue none;
  obs::merge_window(none, cell, 9 * kSec);
  EXPECT_EQ(none.count, 0u);
}

TEST(Window, RotationReclaimsTheRingSlot) {
  obs::WindowCell cell;
  cell.add(1.0, 500);           // slice 0
  cell.add(2.0, 8 * kSec + 1);  // slice 8: same ring slot as slice 0
  // Even with an as_of whose window would still span slice 0, the slot now
  // holds slice 8 — the old samples are gone, not double-counted.
  obs::WindowValue v;
  obs::merge_window(v, cell, 8 * kSec + 1);
  EXPECT_EQ(v.count, 1u);
  EXPECT_DOUBLE_EQ(v.min, 2.0);
  EXPECT_DOUBLE_EQ(v.max, 2.0);
}

TEST(Window, PercentilesComeFromLogBucketUpperEdges) {
  obs::WindowCell cell;
  for (int i = 0; i < 100; ++i) {
    cell.add(1000.0, kSec + static_cast<std::uint64_t>(i));  // bucket (512, 1024]
  }
  cell.add(1.0e6, kSec + 100);  // one outlier, bucket (2^19, 2^20]
  obs::WindowValue v;
  obs::merge_window(v, cell, kSec + 200);
  ASSERT_EQ(v.count, 101u);
  // Median lands in the 1000-sample bucket: estimator reports its upper
  // edge 2^10, clamped by nothing (max is far larger).
  EXPECT_DOUBLE_EQ(v.percentile(0.5), 1024.0);
  // p999 crosses in the outlier's bucket; the estimate clamps to max.
  EXPECT_DOUBLE_EQ(v.percentile(0.999), 1.0e6);
  EXPECT_NEAR(v.mean(), (100 * 1000.0 + 1.0e6) / 101.0, 1e-3);
}

/// Merge the registry's "test_window/merge" cells, writing the canned
/// samples from `threads` workers (round-robin partition).
obs::WindowValue run_partitioned(int threads) {
  obs::Registry::instance().reset();
  std::vector<std::pair<double, std::uint64_t>> samples;
  for (int i = 0; i < 256; ++i) {
    samples.emplace_back(1.0 + (i * 37) % 5000,
                         kSec * (1 + static_cast<std::uint64_t>(i % 8)));
  }
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&samples, t, threads] {
      obs::WindowCell* cell = obs::Registry::instance().window_cell(
          "test_window/merge", obs::WindowSpec{});
      for (std::size_t i = static_cast<std::size_t>(t); i < samples.size();
           i += static_cast<std::size_t>(threads)) {
        cell->add(samples[i].first, samples[i].second);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (auto& [name, value] :
       obs::Registry::instance().window_values(8 * kSec)) {
    if (name == "test_window/merge") return value;
  }
  return obs::WindowValue{};
}

TEST(Window, ShardMergeIsThreadCountInvariant) {
  const obs::WindowValue serial = run_partitioned(1);
  const obs::WindowValue sharded = run_partitioned(4);
  ASSERT_EQ(serial.count, 256u);
  EXPECT_EQ(sharded.count, serial.count);
  EXPECT_EQ(sharded.sum_fx, serial.sum_fx);
  EXPECT_DOUBLE_EQ(sharded.min, serial.min);
  EXPECT_DOUBLE_EQ(sharded.max, serial.max);
  ASSERT_EQ(sharded.buckets, serial.buckets);
  EXPECT_DOUBLE_EQ(sharded.percentile(0.5), serial.percentile(0.5));
  EXPECT_DOUBLE_EQ(sharded.percentile(0.99), serial.percentile(0.99));
}

TEST(Window, FirstRegistrationFixesTheSpec) {
  obs::Registry::instance().reset();
  obs::WindowSpec fine;
  fine.slice_ns = kSec / 10;
  fine.slices = 4;
  obs::WindowCell* a = obs::Registry::instance().window_cell(
      "test_window/spec", fine);
  obs::WindowCell* b = obs::Registry::instance().window_cell(
      "test_window/spec", obs::WindowSpec{});  // ignored: already registered
  EXPECT_EQ(a, b);
  EXPECT_EQ(a->spec.slice_ns, fine.slice_ns);
  EXPECT_EQ(a->spec.slices, fine.slices);
}

}  // namespace
}  // namespace sdem
