#include "obs/window.hpp"

#include <algorithm>
#include <cmath>
#include <map>

namespace sdem::obs {

WindowCell::WindowCell(const WindowSpec& s) : spec(s) {
  if (spec.slice_ns == 0) spec.slice_ns = 1;
  if (spec.slices < 1) spec.slices = 1;
  ring.resize(static_cast<std::size_t>(spec.slices));
}

void WindowCell::add(double v, std::uint64_t ts_ns) {
  const std::uint64_t idx = ts_ns / spec.slice_ns;
  Slice& s = ring[static_cast<std::size_t>(idx % ring.size())];
  if (s.index != idx) {
    s = Slice{};  // lazy rotation: reclaim a stale (or fresh) slot
    s.index = idx;
  }
  if (s.count == 0 || v < s.min) s.min = v;
  if (s.count == 0 || v > s.max) s.max = v;
  ++s.count;
  s.sum_fx += static_cast<std::int64_t>(std::llround(v * kDistFxScale));
  int b = 0;
  if (v > 0.0 && std::isfinite(v)) {
    b = std::clamp(std::ilogb(v), -63, 62) + 64;  // [1, 126]
  } else if (v > 0.0) {
    b = kDistBuckets - 1;  // +inf overflow bucket
  }
  ++s.buckets[b];
}

void WindowCell::clear() {
  for (Slice& s : ring) s = Slice{};
}

void merge_window(WindowValue& into, const WindowCell& cell,
                  std::uint64_t as_of_ns) {
  const std::uint64_t cur = as_of_ns / cell.spec.slice_ns;
  const std::uint64_t span = static_cast<std::uint64_t>(cell.spec.slices) - 1;
  const std::uint64_t lo = cur >= span ? cur - span : 0;
  // Rebuild the sparse bucket list through an ordered map, like merge_dist.
  std::map<int, std::uint64_t> merged;
  for (const auto& [e, c] : into.buckets) merged[e] += c;
  for (const WindowCell::Slice& s : cell.ring) {
    if (s.index == WindowCell::kEmptySlice || s.index < lo || s.index > cur) {
      continue;  // stale or future slot: aged out of the window
    }
    if (s.count == 0) continue;
    if (into.count == 0 || s.min < into.min) into.min = s.min;
    if (into.count == 0 || s.max > into.max) into.max = s.max;
    into.count += s.count;
    into.sum_fx += s.sum_fx;
    for (int i = 0; i < kDistBuckets; ++i) {
      if (s.buckets[i] > 0) merged[i == 0 ? -9999 : i - 64] += s.buckets[i];
    }
  }
  into.buckets.assign(merged.begin(), merged.end());
}

}  // namespace sdem::obs
