// Sliding-window log-bucket histograms — the *live* telemetry tier next to
// the cumulative registry in obs.hpp (docs/observability.md §windowed).
//
// A WindowCell is a plain value owned by its one writer: a ring of
// kWindowSlices time slices, each a DistCell stamped with the *absolute*
// slice number it covers (timestamp / kWindowSliceNs). add() rotates
// lazily: when a sample lands in a ring slot whose stored slice number
// differs, the slot is cleared and re-claimed — no timers, no background
// sweeps. value() folds the slices of the window ending at an explicit
// as-of instant into a DistValue with the snapshot's own merge, so stale
// slots age out by simply failing the range test.
//
// The cell takes no lock and is registered nowhere: whoever owns it orders
// its writes before its reads (the service's shards, service.hpp).
// Timestamps come from the caller (obs::now_ns() in the service), so
// windows are inherently runtime-tier: they never feed the deterministic
// "counters" JSON section and are excluded from every --stable surface.
#pragma once

#include <array>
#include <cstdint>

#include "obs/obs.hpp"

namespace sdem::obs {

/// Window geometry: kWindowSlices slices of kWindowSliceNs, so a window
/// covers the last 8 s (the service's METRICS verb, docs/service.md).
inline constexpr std::uint64_t kWindowSliceNs = 1'000'000'000ull;
inline constexpr int kWindowSlices = 8;

/// One windowed histogram.
struct WindowCell {
  /// Slice-number sentinel for a never-used ring slot.
  static constexpr std::uint64_t kEmptySlice = ~0ull;

  struct Slice {
    std::uint64_t index = kEmptySlice;  ///< absolute slice number
    DistCell dist;
  };

  std::array<Slice, kWindowSlices> ring;  ///< slice n sits at n % kWindowSlices

  /// Record `v` at absolute time `ts_ns`, rotating the ring lazily.
  void add(double v, std::uint64_t ts_ns);

  /// The samples of slices [as_of/kWindowSliceNs - kWindowSlices + 1,
  /// as_of/kWindowSliceNs]: the window ending at `as_of_ns`.
  DistValue value(std::uint64_t as_of_ns) const;
};

}  // namespace sdem::obs
