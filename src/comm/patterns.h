#pragma once
// Synthetic communication-pattern generators, and the 2-D block grid every
// block decomposition in the repo is laid out on. The block-stencil
// generator reproduces the pattern the ORWL Livermore Kernel 23
// decomposition induces (Sec. III of the paper): each block exchanges edges
// with its 4 axis neighbours and corners with its 4 diagonal neighbours.

#include <cstdint>
#include <utility>

#include "comm/comm_matrix.h"

namespace orwl::comm {

/// Near-square 2-D block grid for `tasks` blocks: {bx, by} with
/// bx * by == tasks, bx >= by, and by the largest divisor of `tasks` not
/// above sqrt(tasks). Every block decomposition in the repo (the LK23
/// definition, the stencil-style workloads, the analytic Figure-1 model)
/// factors its task count through this one function.
std::pair<int, int> block_grid(int tasks);

/// The eight directions of the ORWL block decomposition (paper Sec. III):
/// a block exports an edge towards each axis neighbour and a corner towards
/// each diagonal one. The axis directions come first, so a decomposition
/// that exchanges edges only loops over [0, kAxisDirs).
enum Dir : int { N, S, W, E, NW, NE, SW, SE };
inline constexpr int kAxisDirs = 4;
inline constexpr int kAllDirs = 8;

/// The direction back: N <-> S, W <-> E, NW <-> SE, NE <-> SW.
int opposite(int dir);

/// A bx x by grid of brows x bcols blocks over a rows() x cols() field.
/// Block b sits in grid column b % bx and grid row b / bx; rows grow
/// southwards.
struct BlockGrid {
  int bx = 1, by = 1;
  long brows = 1, bcols = 1;

  int blocks() const { return bx * by; }
  long rows() const { return brows * by; }
  long cols() const { return bcols * bx; }
  /// Global row and column of block b's (0, 0).
  long row0(int b) const { return b / bx * brows; }
  long col0(int b) const { return b % bx * bcols; }
  /// The block in direction `dir` of block b, or -1 past the grid's edge.
  int neighbour(int b, int dir) const;
  /// Doubles a block exports towards `dir`: an edge's length, or 1 for a
  /// corner.
  long face_elems(int dir) const;
  /// Copy the face towards `dir` of the block whose (0, 0) is at `block`,
  /// its rows `stride` doubles apart, into `out` (face_elems(dir) doubles).
  /// stride == bcols for a contiguous block, cols() for one inside the
  /// global field.
  void copy_face(const double* block, long stride, int dir,
                 double* out) const;
};

/// Thread-per-block stencil communication matrix (order = g.blocks()) of
/// doubles. Edge weight = edge length in bytes; corner weight = one
/// double, left out when `corners` is false. Block b is thread b.
CommMatrix stencil_matrix(const BlockGrid& g, bool corners = true);

/// 1-D ring of n threads exchanging `bytes` with each neighbour.
CommMatrix ring_matrix(int n, double bytes, bool periodic = true);

/// All-pairs uniform communication (the worst case for locality).
CommMatrix uniform_matrix(int n, double bytes);

/// Random sparse symmetric matrix: each pair communicates with probability
/// `density` and weight uniform in [1, max_weight]. Deterministic in `seed`.
CommMatrix random_matrix(int n, double density, double max_weight,
                         std::uint64_t seed);

/// Clustered matrix: n threads in n/cluster_size clusters; heavy intra-
/// cluster weight, light inter-cluster weight. The best case for TreeMatch.
CommMatrix clustered_matrix(int n, int cluster_size, double intra,
                            double inter);

}  // namespace orwl::comm
