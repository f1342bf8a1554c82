#pragma once
// Livermore Kernel 23 — 2-D implicit hydrodynamics fragment (LINPACK /
// Livermore loops):
//
//   qa = za[j+1][k]*zr[j][k] + za[j-1][k]*zb[j][k]
//      + za[j][k+1]*zu[j][k] + za[j][k-1]*zv[j][k] + zz[j][k];
//   za[j][k] += 0.175 * (qa - za[j][k]);
//
// swept in place (Gauss–Seidel order) over the interior; the global border
// is fixed. The coefficient arrays zr/zb/zu/zv/zz are pure functions of the
// global index so every implementation sees identical data without storing
// five N×N arrays.
//
// Parallel semantics (all block implementations, and the blocked
// reference): values *inside* the sweeping block follow in-place GS order;
// values *outside* come from a frontier snapshot of the previous iteration
// (block-Jacobi coupling). This makes the result independent of block
// execution order, so ORWL and fork-join runs are bit-identical to the
// blocked reference.

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "comm/patterns.h"

namespace orwl::lk23 {

/// The 8 frontier directions of the decomposition (paper Sec. III).
using enum comm::Dir;

/// Relaxation factor of the kernel.
inline constexpr double kRelax = 0.175;

/// Coefficient fields (cheap integer-hash formulas; sum < 1 for stability).
inline double coef_zr(long j, long k) {
  return 0.10 + 0.02 * static_cast<double>((j * 3 + k * 7) & 15) / 15.0;
}
inline double coef_zb(long j, long k) {
  return 0.10 + 0.02 * static_cast<double>((j * 5 + k * 3) & 15) / 15.0;
}
inline double coef_zu(long j, long k) {
  return 0.10 + 0.02 * static_cast<double>((j + k * 11) & 15) / 15.0;
}
inline double coef_zv(long j, long k) {
  return 0.10 + 0.02 * static_cast<double>((j * 13 + k) & 15) / 15.0;
}
inline double coef_zz(long j, long k) {
  return 0.02 * static_cast<double>((j ^ k) & 31) / 31.0;
}

/// Initial za value at global (j, k).
inline double initial_za(long j, long k) {
  const auto h = static_cast<std::uint64_t>(j) * 2654435761ull +
                 static_cast<std::uint64_t>(k) * 40503ull;
  return static_cast<double>(h & 1023ull) / 1024.0;
}

/// Frontier snapshot around a block (previous-iteration values), one
/// buffer per comm::Dir holding that direction's face. Only the four edges
/// feed the 5-point stencil; the corners are carried because the ORWL
/// decomposition exchanges all 8 directions (paper Sec. III), and nothing
/// reads them.
using Halo = std::array<std::vector<double>, comm::kAllDirs>;

/// Geometry of one block inside the global N×N matrix.
struct BlockView {
  double* za = nullptr;  ///< first element of the block
  long stride = 0;       ///< row stride of the underlying storage
  long rows = 0, cols = 0;
  long row0 = 0, col0 = 0;  ///< global position of the block's (0, 0)
  long n = 0;               ///< global matrix size
};

/// One in-place GS sweep over a block, using `halo` for out-of-block
/// neighbours. Global border points are left untouched.
void sweep_block(const BlockView& block, const Halo& halo);

/// Fill a block with the initial za field.
void init_block(const BlockView& block);

/// Spec shared by all implementations.
struct Spec {
  long n = 256;        ///< global matrix is n×n doubles
  int iterations = 10;
  int bx = 1, by = 1;  ///< block grid (bx*by blocks); must divide n

  /// The bx×by grid of (n/by)×(n/bx) blocks.
  comm::BlockGrid grid() const { return {bx, by, n / by, n / bx}; }
};

/// Sequential *blocked* reference: same numerics as the parallel versions.
/// Returns the final n×n za field (row major).
std::vector<double> blocked_reference(const Spec& spec);

/// Plain sequential GS sweep (no blocking) — the classic kernel. Only
/// lk23_kernel_test uses it, as a second oracle for sweep_block; it is NOT
/// the oracle for the parallel versions.
std::vector<double> sequential_kernel(long n, int iterations);

/// Max |a - b| over two equally sized fields.
double max_abs_diff(std::span<const double> a, std::span<const double> b);

}  // namespace orwl::lk23
