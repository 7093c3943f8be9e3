// Sliding-window log-bucket histograms — the *live* telemetry tier on top
// of the cumulative registry in obs.hpp (docs/observability.md §windowed).
//
// A WindowCell is a ring of time slices; each slice is a small log2
// histogram (count / min / max / fixed-point sum / 128 buckets) stamped
// with the *absolute* slice number it covers (timestamp / slice_ns).
// add() rotates lazily: when a sample lands in a ring slot whose stored
// slice number differs, the slot is cleared and re-claimed — no timers, no
// background sweeps. A merged WindowValue (a DistValue, obs.hpp) covers the
// last `slices` slice numbers ending at an explicit as-of instant, so stale
// slots age out by simply failing the range test at merge time.
//
// Cells live in the same per-thread registry shards as the cumulative
// cells (one WindowCell per name per thread, registered on first use) and
// merge with the same determinism discipline: integer counts, integer
// bucket sums, 2^-20 fixed-point value sums. Given the same (value,
// timestamp) samples, the merged WindowValue is byte-identical however the
// samples were distributed over threads — tests/test_window.cpp asserts
// the 1-thread vs 4-thread fold. Timestamps come from the caller
// (obs::now_ns() in the service), so windows are inherently runtime-tier:
// they never feed the deterministic "counters" JSON section and are
// excluded from every --stable surface.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace sdem::obs {

/// Window geometry. The covered span is `slices * slice_ns` ending at the
/// merge instant; the default (8 x 1 s) matches the service's METRICS verb
/// (docs/service.md). The first registration of a name fixes its spec.
struct WindowSpec {
  std::uint64_t slice_ns = 1'000'000'000ull;  ///< slice width (1 s)
  int slices = 8;                             ///< ring length

  std::uint64_t window_ns() const {
    return slice_ns * static_cast<std::uint64_t>(slices);
  }
};

/// Thread-local shard storage for one windowed histogram.
struct WindowCell {
  /// Slice-number sentinel for a never-used ring slot.
  static constexpr std::uint64_t kEmptySlice = ~0ull;

  struct Slice {
    std::uint64_t index = kEmptySlice;  ///< absolute slice number
    std::uint64_t count = 0;
    std::int64_t sum_fx = 0;  ///< sum in kDistFxScale units
    double min = 0.0;
    double max = 0.0;
    std::uint64_t buckets[kDistBuckets] = {};
  };

  WindowSpec spec;
  std::vector<Slice> ring;  ///< spec.slices slots, indexed by slice % slices

  explicit WindowCell(const WindowSpec& s = WindowSpec{});

  /// Record `v` at absolute time `ts_ns`, rotating the ring lazily. Same
  /// bucket geometry as DistCell::add. Unsynchronized thread-local write.
  void add(double v, std::uint64_t ts_ns);

  /// Drop every slice (Registry::reset path).
  void clear();
};

/// Fold `cell`'s in-window slices (absolute slice numbers in
/// [as_of/slice_ns - slices + 1, as_of/slice_ns]) into `into`. Commutative
/// integer merge: any shard order yields the same value.
void merge_window(WindowValue& into, const WindowCell& cell,
                  std::uint64_t as_of_ns);

}  // namespace sdem::obs
