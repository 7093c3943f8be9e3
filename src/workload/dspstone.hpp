// DSPstone-style benchmark workloads (paper §8.1.1).
//
// The paper instantiates tasks from two DSPstone kernels — a 1024-point FFT
// and a matrix multiply — with cycle counts measured on Analog Devices'
// xsim2101 simulator. We model the kernels analytically instead (the
// simulator is not available):
//
//   * FFT-1024: (N/2) log2 N = 5120 radix-2 butterflies at ~16 cycles each,
//     processed in batches of `fft_batch` frames per task instance
//     (streaming DSP pipelines hand the filter whole buffers, not single
//     frames) — 1.31 megacycles per 16-frame instance.
//   * matmul: [X x Y] * [Y x Z] with X, Y, Z drawn uniformly from
//     [40, 80]; 2 cycles per multiply-accumulate.
//
// As in the paper, an instance's feasible region equals its processing time
// at 16.5 MHz (the reference DSP's clock), and instances of each stream are
// released sporadically with period |d - r| * U — larger U means a less
// utilized system. Streams alternate FFT and matmul across the 8 cores.
#pragma once

#include <cstdint>

#include "model/task.hpp"

namespace sdem {

struct DspstoneParams {
  int num_tasks = 200;    ///< total instances across all 8 streams
  double utilization_u = 4.0;  ///< the paper's U in [2, 9]
  int fft_batch = 16;     ///< frames per FFT instance
  double ref_mhz = 16.5;  ///< reference DSP clock defining the regions
};

/// Cycle count (megacycles) of one batched FFT-1024 instance.
double fft1024_megacycles(int batch);

/// Cycle count (megacycles) of an [X x Y] * [Y x Z] multiply.
double matmul_megacycles(int x, int y, int z);

/// Build the benchmark trace. Instance k+1 of a stream is released
/// period * U(1.0, 1.2) after instance k (sporadic releases).
TaskSet make_dspstone(const DspstoneParams& p, std::uint64_t seed);

}  // namespace sdem
