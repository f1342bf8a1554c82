#include "comm/patterns.h"

#include <algorithm>
#include <cmath>

#include "support/assert.h"
#include "support/rng.h"

namespace orwl::comm {

std::pair<int, int> block_grid(int tasks) {
  ORWL_CHECK_MSG(tasks >= 1, "need at least one task");
  int by = static_cast<int>(std::sqrt(static_cast<double>(tasks)));
  while (tasks % by != 0) --by;
  return {tasks / by, by};
}

int opposite(int dir) {
  static constexpr int kOpposite[] = {S, N, E, W, SE, SW, NE, NW};
  ORWL_CHECK_MSG(dir >= 0 && dir < kAllDirs, "bad direction " << dir);
  return kOpposite[dir];
}

int BlockGrid::neighbour(int b, int dir) const {
  static constexpr int kDx[] = {0, 0, -1, +1, -1, +1, -1, +1};
  static constexpr int kDy[] = {-1, +1, 0, 0, -1, -1, +1, +1};
  ORWL_CHECK_MSG(dir >= 0 && dir < kAllDirs, "bad direction " << dir);
  const int x = b % bx + kDx[dir];
  const int y = b / bx + kDy[dir];
  if (x < 0 || y < 0 || x >= bx || y >= by) return -1;
  return y * bx + x;
}

long BlockGrid::face_elems(int dir) const {
  if (dir == N || dir == S) return bcols;
  if (dir == W || dir == E) return brows;
  return 1;  // corners
}

void BlockGrid::copy_face(const double* block, long stride, int dir,
                          double* out) const {
  const double* const last = block + (brows - 1) * stride;
  switch (dir) {
    case N: std::copy(block, block + bcols, out); return;
    case S: std::copy(last, last + bcols, out); return;
    case W:
      for (long r = 0; r < brows; ++r) out[r] = block[r * stride];
      return;
    case E:
      for (long r = 0; r < brows; ++r) out[r] = block[r * stride + bcols - 1];
      return;
    case NW: out[0] = block[0]; return;
    case NE: out[0] = block[bcols - 1]; return;
    case SW: out[0] = last[0]; return;
    case SE: out[0] = last[bcols - 1]; return;
  }
  ORWL_CHECK_MSG(false, "bad direction " << dir);
}

CommMatrix stencil_matrix(const BlockGrid& g, bool corners) {
  ORWL_CHECK_MSG(g.bx >= 1 && g.by >= 1, "stencil needs at least one block");
  ORWL_CHECK_MSG(g.brows >= 1 && g.bcols >= 1, "blocks must be non-empty");
  constexpr double kElem = sizeof(double);
  const int bx = g.bx;
  const int by = g.by;
  CommMatrix m(bx * by);

  auto tid = [&](int x, int y) { return y * bx + x; };

  // Each pair once, from its west or north member: horizontal edges carry
  // brows elements, vertical edges bcols, corners one.
  for (int y = 0; y < by; ++y) {
    for (int x = 0; x < bx; ++x) {
      const int self = tid(x, y);
      if (x + 1 < bx)
        m.add(self, tid(x + 1, y), static_cast<double>(g.brows) * kElem);
      if (y + 1 < by)
        m.add(self, tid(x, y + 1), static_cast<double>(g.bcols) * kElem);
      if (!corners || x + 1 >= bx) continue;
      if (y + 1 < by) m.add(self, tid(x + 1, y + 1), kElem);
      if (y > 0) m.add(self, tid(x + 1, y - 1), kElem);
    }
  }
  return m;
}

CommMatrix ring_matrix(int n, double bytes, bool periodic) {
  ORWL_CHECK_MSG(n >= 1, "ring needs at least one thread");
  CommMatrix m(n);
  for (int i = 0; i + 1 < n; ++i) m.add(i, i + 1, bytes);
  if (periodic && n > 2) m.add(n - 1, 0, bytes);
  return m;
}

CommMatrix uniform_matrix(int n, double bytes) {
  ORWL_CHECK_MSG(n >= 1, "matrix needs at least one thread");
  CommMatrix m(n);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) m.set(i, j, bytes);
  return m;
}

CommMatrix random_matrix(int n, double density, double max_weight,
                         std::uint64_t seed) {
  ORWL_CHECK_MSG(n >= 1, "matrix needs at least one thread");
  ORWL_CHECK_MSG(density >= 0.0 && density <= 1.0,
                 "density must be in [0,1], got " << density);
  ORWL_CHECK_MSG(max_weight >= 1.0, "max_weight must be >= 1");
  Xoshiro256 rng(seed);
  CommMatrix m(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.uniform() < density)
        m.set(i, j, 1.0 + rng.uniform() * (max_weight - 1.0));
    }
  }
  return m;
}

CommMatrix clustered_matrix(int n, int cluster_size, double intra,
                            double inter) {
  ORWL_CHECK_MSG(n >= 1 && cluster_size >= 1, "bad cluster spec");
  ORWL_CHECK_MSG(intra >= inter && inter >= 0.0,
                 "clustered matrix expects intra >= inter >= 0");
  CommMatrix m(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const bool same = (i / cluster_size) == (j / cluster_size);
      const double w = same ? intra : inter;
      if (w > 0.0) m.set(i, j, w);
    }
  }
  return m;
}

}  // namespace orwl::comm
