#include "obs/window.hpp"

namespace sdem::obs {

void WindowCell::add(double v, std::uint64_t ts_ns) {
  const std::uint64_t idx = ts_ns / kWindowSliceNs;
  Slice& s = ring[idx % kWindowSlices];
  // Lazy rotation: reclaim a stale (or fresh) slot.
  if (s.index != idx) s = Slice{idx, DistCell{}};
  s.dist.add(v);
}

DistValue WindowCell::value(std::uint64_t as_of_ns) const {
  const std::uint64_t cur = as_of_ns / kWindowSliceNs;
  const std::uint64_t span = kWindowSlices - 1;
  const std::uint64_t lo = cur >= span ? cur - span : 0;
  DistValue out;
  for (const Slice& s : ring) {
    // kEmptySlice is past any `cur`, so a never-used slot fails too.
    if (s.index >= lo && s.index <= cur) out.merge(s.dist);
  }
  return out;
}

}  // namespace sdem::obs
