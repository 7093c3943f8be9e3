// Sliding-window histograms (obs/window.hpp): the acceptance properties
// behind the METRICS verb's windowed quantiles — slices rotate lazily and
// reclaim their ring slot across boundaries, samples age out of the fold
// once the window passes them, empty windows read as zeros, and quantiles
// come from the log2 buckets' upper edges. Window cells are plain values,
// written directly, not through the recording gate's macro sites.
#include <gtest/gtest.h>

#include <cstdint>

#include "obs/obs.hpp"
#include "obs/window.hpp"

namespace sdem {
namespace {

constexpr std::uint64_t kSec = 1'000'000'000ull;

TEST(Window, EmptyWindowReadsZeros) {
  const obs::WindowCell cell{};
  const obs::DistValue v = cell.value(5 * kSec);
  EXPECT_EQ(v.count, 0u);
  EXPECT_DOUBLE_EQ(v.sum(), 0.0);
  EXPECT_DOUBLE_EQ(v.mean(), 0.0);
  EXPECT_DOUBLE_EQ(v.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(v.percentile(0.999), 0.0);
}

TEST(Window, SamplesAgeOutAcrossSliceBoundaries) {
  obs::WindowCell cell;  // 1 s slices, 8 of them
  cell.add(100.0, 0 * kSec + 1);  // slice 0
  cell.add(200.0, 1 * kSec + 1);  // slice 1

  // as_of in slice 1: the window [slice -6, slice 1] covers both.
  const obs::DistValue both = cell.value(1 * kSec + 2);
  EXPECT_EQ(both.count, 2u);
  EXPECT_DOUBLE_EQ(both.min, 100.0);
  EXPECT_DOUBLE_EQ(both.max, 200.0);

  // as_of in slice 8: the window is [slice 1, slice 8] — slice 0 aged out.
  const obs::DistValue one = cell.value(8 * kSec);
  EXPECT_EQ(one.count, 1u);
  EXPECT_DOUBLE_EQ(one.min, 200.0);

  // as_of in slice 9: everything aged out.
  const obs::DistValue none = cell.value(9 * kSec);
  EXPECT_EQ(none.count, 0u);
}

TEST(Window, RotationReclaimsTheRingSlot) {
  obs::WindowCell cell;
  cell.add(1.0, 500);           // slice 0
  cell.add(2.0, 8 * kSec + 1);  // slice 8: same ring slot as slice 0
  // Even with an as_of whose window would still span slice 0, the slot now
  // holds slice 8 — the old samples are gone, not double-counted.
  const obs::DistValue v = cell.value(8 * kSec + 1);
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
  const obs::DistValue v = cell.value(kSec + 200);
  ASSERT_EQ(v.count, 101u);
  // Median lands in the 1000-sample bucket: estimator reports its upper
  // edge 2^10, clamped by nothing (max is far larger).
  EXPECT_DOUBLE_EQ(v.percentile(0.5), 1024.0);
  // p999 crosses in the outlier's bucket; the estimate clamps to max.
  EXPECT_DOUBLE_EQ(v.percentile(0.999), 1.0e6);
  EXPECT_NEAR(v.mean(), (100 * 1000.0 + 1.0e6) / 101.0, 1e-3);
}

}  // namespace
}  // namespace sdem
