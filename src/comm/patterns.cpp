#include "comm/patterns.h"

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

CommMatrix stencil_matrix(const StencilSpec& spec) {
  ORWL_CHECK_MSG(spec.blocks_x >= 1 && spec.blocks_y >= 1,
                 "stencil needs at least one block");
  ORWL_CHECK_MSG(spec.block_rows >= 1 && spec.block_cols >= 1,
                 "blocks must be non-empty");
  const int bx = spec.blocks_x;
  const int by = spec.blocks_y;
  CommMatrix m(bx * by);

  auto tid = [&](int x, int y) { return y * bx + x; };
  auto wrap = [](int v, int n) { return ((v % n) + n) % n; };

  for (int y = 0; y < by; ++y) {
    for (int x = 0; x < bx; ++x) {
      const int self = tid(x, y);
      // Axis neighbours: horizontal edges carry block_rows elements,
      // vertical edges carry block_cols elements.
      struct Step {
        int dx, dy;
        double elems;
      };
      const Step axis[] = {
          {+1, 0, static_cast<double>(spec.block_rows)},
          {0, +1, static_cast<double>(spec.block_cols)},
      };
      for (const auto& s : axis) {
        int nx = x + s.dx;
        int ny = y + s.dy;
        if (spec.periodic) {
          nx = wrap(nx, bx);
          ny = wrap(ny, by);
        } else if (nx >= bx || ny >= by) {
          continue;
        }
        const int other = tid(nx, ny);
        if (other == self) continue;  // degenerate periodic dimension
        m.add(self, other, s.elems * spec.elem_bytes);
      }
      if (spec.corners) {
        const int diag[][2] = {{+1, +1}, {+1, -1}};
        for (const auto& d : diag) {
          int nx = x + d[0];
          int ny = y + d[1];
          if (spec.periodic) {
            nx = wrap(nx, bx);
            ny = wrap(ny, by);
          } else if (nx < 0 || ny < 0 || nx >= bx || ny >= by) {
            continue;
          }
          const int other = tid(nx, ny);
          if (other == self) continue;
          m.add(self, other, static_cast<double>(spec.elem_bytes));
        }
      }
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
