#include "workload/dspstone.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "support/rng.hpp"

namespace sdem {
namespace {

constexpr int kStreams = 8;  ///< one per core, alternating FFT / matmul
constexpr int kDimLo = 40;   ///< matmul dimension range
constexpr int kDimHi = 80;

}  // namespace

double fft1024_megacycles(int batch) {
  // (N/2) log2 N butterflies, ~16 cycles per radix-2 butterfly.
  constexpr double kButterflies = 512.0 * 10.0;
  constexpr double kCyclesPerButterfly = 16.0;
  return batch * kButterflies * kCyclesPerButterfly * 1e-6;
}

double matmul_megacycles(int x, int y, int z) {
  // Two cycles per multiply-accumulate.
  return 2.0 * static_cast<double>(x) * y * z * 1e-6;
}

TaskSet make_dspstone(const DspstoneParams& p, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  TaskSet out;
  std::vector<double> next_release(kStreams, 0.0);
  // Stagger the streams so arrivals don't all collide at t = 0.
  for (auto& t : next_release) t = rng.uniform(0.0, 0.020);

  int id = 0;
  while (id < p.num_tasks) {
    // Earliest-next stream emits the next instance.
    int s = 0;
    for (int k = 1; k < kStreams; ++k) {
      if (next_release[k] < next_release[s]) s = k;
    }
    const bool is_fft = (s % 2) == 0;
    double mc;
    if (is_fft) {
      mc = fft1024_megacycles(p.fft_batch);
    } else {
      const int x = static_cast<int>(rng.uniform_int(kDimLo, kDimHi));
      const int y = static_cast<int>(rng.uniform_int(kDimLo, kDimHi));
      const int z = static_cast<int>(rng.uniform_int(kDimLo, kDimHi));
      mc = matmul_megacycles(x, y, z);
    }
    const double region = mc / p.ref_mhz;  // processing time at 16.5 MHz
    Task t;
    t.id = id++;
    t.release = next_release[s];
    t.deadline = t.release + region;
    t.work = mc;
    out.add(t);
    next_release[s] += region * p.utilization_u * rng.uniform(1.0, 1.2);
  }
  return out;
}

}  // namespace sdem
