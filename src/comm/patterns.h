#pragma once
// Synthetic communication-pattern generators. The block-stencil generator
// reproduces the pattern the ORWL Livermore Kernel 23 decomposition induces
// (Sec. III of the paper): each block exchanges edges with its 4 axis
// neighbours and corners with its 4 diagonal neighbours.

#include <cstdint>
#include <utility>

#include "comm/comm_matrix.h"

namespace orwl::comm {

/// Geometry of a 2-D block decomposition.
struct StencilSpec {
  int blocks_x = 1;          ///< number of blocks horizontally
  int blocks_y = 1;          ///< number of blocks vertically
  int block_rows = 1;        ///< matrix rows per block
  int block_cols = 1;        ///< matrix columns per block
  int elem_bytes = 8;        ///< sizeof(double)
  bool periodic = false;     ///< wrap-around neighbours
  bool corners = true;       ///< include diagonal (corner) exchanges
};

/// Near-square 2-D block grid for `tasks` blocks: {bx, by} with
/// bx * by == tasks, bx >= by, and by the largest divisor of `tasks` not
/// above sqrt(tasks). Every block decomposition in the repo (the LK23
/// definition, the stencil-style workloads, the analytic Figure-1 model)
/// factors its task count through this one function.
std::pair<int, int> block_grid(int tasks);

/// Thread-per-block stencil communication matrix (order = bx * by).
/// Edge weight = edge length in elements * elem_bytes; corner weight =
/// elem_bytes. Block (x, y) is thread index y * blocks_x + x.
CommMatrix stencil_matrix(const StencilSpec& spec);

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
