#include "lk23/kernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/assert.h"

namespace orwl::lk23 {

void init_block(const BlockView& b) {
  ORWL_CHECK(b.za != nullptr && b.stride >= b.cols);
  for (long r = 0; r < b.rows; ++r)
    for (long c = 0; c < b.cols; ++c)
      b.za[r * b.stride + c] = initial_za(b.row0 + r, b.col0 + c);
}

void sweep_block(const BlockView& b, const Halo& halo) {
  ORWL_CHECK(b.za != nullptr && b.stride >= b.cols);
  ORWL_CHECK_MSG(static_cast<long>(halo.north.size()) >= b.cols &&
                     static_cast<long>(halo.south.size()) >= b.cols &&
                     static_cast<long>(halo.west.size()) >= b.rows &&
                     static_cast<long>(halo.east.size()) >= b.rows,
                 "halo buffers smaller than block faces");
  for (long r = 0; r < b.rows; ++r) {
    const long gj = b.row0 + r;
    if (gj == 0 || gj == b.n - 1) continue;  // fixed global border
    double* row = b.za + r * b.stride;
    const double* up_row =
        r > 0 ? b.za + (r - 1) * b.stride : halo.north.data();
    const double* down_row =
        r < b.rows - 1 ? b.za + (r + 1) * b.stride : halo.south.data();
    for (long c = 0; c < b.cols; ++c) {
      const long gk = b.col0 + c;
      if (gk == 0 || gk == b.n - 1) continue;
      const double up = up_row[c];
      const double down = down_row[c];
      const double left = c > 0 ? row[c - 1] : halo.west[static_cast<std::size_t>(r)];
      const double right =
          c < b.cols - 1 ? row[c + 1] : halo.east[static_cast<std::size_t>(r)];
      const double qa = down * coef_zr(gj, gk) + up * coef_zb(gj, gk) +
                        right * coef_zu(gj, gk) + left * coef_zv(gj, gk) +
                        coef_zz(gj, gk);
      row[c] += kRelax * (qa - row[c]);
    }
  }
}

int opposite(int dir) {
  switch (dir) {
    case N: return S;
    case S: return N;
    case W: return E;
    case E: return W;
    case NW: return SE;
    case NE: return SW;
    case SW: return NE;
    case SE: return NW;
  }
  ORWL_CHECK_MSG(false, "bad direction " << dir);
  return -1;
}

std::pair<int, int> dir_delta(int dir) {
  switch (dir) {
    case N: return {0, -1};
    case S: return {0, +1};
    case W: return {-1, 0};
    case E: return {+1, 0};
    case NW: return {-1, -1};
    case NE: return {+1, -1};
    case SW: return {-1, +1};
    case SE: return {+1, +1};
  }
  ORWL_CHECK_MSG(false, "bad direction " << dir);
  return {0, 0};
}

long face_elems(const Spec& spec, int dir) {
  const long brows = spec.n / spec.by;
  const long bcols = spec.n / spec.bx;
  if (dir == N || dir == S) return bcols;
  if (dir == W || dir == E) return brows;
  return 1;  // corners
}

void copy_face(const double* za, long rows, long cols, int dir, double* out) {
  switch (dir) {
    case N: std::memcpy(out, za, static_cast<std::size_t>(cols) * 8); return;
    case S:
      std::memcpy(out, za + (rows - 1) * cols,
                  static_cast<std::size_t>(cols) * 8);
      return;
    case W:
      for (long r = 0; r < rows; ++r) out[r] = za[r * cols];
      return;
    case E:
      for (long r = 0; r < rows; ++r) out[r] = za[r * cols + cols - 1];
      return;
    case NW: out[0] = za[0]; return;
    case NE: out[0] = za[cols - 1]; return;
    case SW: out[0] = za[(rows - 1) * cols]; return;
    case SE: out[0] = za[(rows - 1) * cols + cols - 1]; return;
  }
  ORWL_CHECK_MSG(false, "bad direction " << dir);
}

std::vector<double> blocked_reference(const Spec& spec) {
  ORWL_CHECK_MSG(spec.n >= 2 && spec.iterations >= 0, "bad LK23 spec");
  ORWL_CHECK_MSG(spec.bx >= 1 && spec.by >= 1 && spec.n % spec.bx == 0 &&
                     spec.n % spec.by == 0,
                 "block grid " << spec.bx << "x" << spec.by
                               << " must divide n=" << spec.n);
  const long n = spec.n;
  const long brows = n / spec.by;
  const long bcols = n / spec.bx;
  std::vector<double> za(static_cast<std::size_t>(n * n));
  std::vector<double> prev(static_cast<std::size_t>(n * n));

  BlockView whole{za.data(), n, n, n, 0, 0, n};
  init_block(whole);

  Halo halo;
  halo.north.resize(static_cast<std::size_t>(bcols));
  halo.south.resize(static_cast<std::size_t>(bcols));
  halo.west.resize(static_cast<std::size_t>(brows));
  halo.east.resize(static_cast<std::size_t>(brows));

  for (int it = 0; it < spec.iterations; ++it) {
    prev = za;  // frontier snapshot (previous iteration)
    for (int byi = 0; byi < spec.by; ++byi) {
      for (int bxi = 0; bxi < spec.bx; ++bxi) {
        const long row0 = byi * brows;
        const long col0 = bxi * bcols;
        BlockView blk{za.data() + row0 * n + col0, n, brows, bcols,
                      row0, col0, n};
        auto prev_at = [&](long j, long k) -> double {
          if (j < 0 || k < 0 || j >= n || k >= n) return 0.0;
          return prev[static_cast<std::size_t>(j * n + k)];
        };
        for (long c = 0; c < bcols; ++c) {
          halo.north[static_cast<std::size_t>(c)] = prev_at(row0 - 1, col0 + c);
          halo.south[static_cast<std::size_t>(c)] =
              prev_at(row0 + brows, col0 + c);
        }
        for (long r = 0; r < brows; ++r) {
          halo.west[static_cast<std::size_t>(r)] = prev_at(row0 + r, col0 - 1);
          halo.east[static_cast<std::size_t>(r)] =
              prev_at(row0 + r, col0 + bcols);
        }
        sweep_block(blk, halo);
      }
    }
  }
  return za;
}

std::vector<double> sequential_kernel(long n, int iterations) {
  ORWL_CHECK_MSG(n >= 2 && iterations >= 0, "bad kernel size");
  std::vector<double> za(static_cast<std::size_t>(n * n));
  BlockView whole{za.data(), n, n, n, 0, 0, n};
  init_block(whole);
  for (int it = 0; it < iterations; ++it) {
    for (long j = 1; j < n - 1; ++j) {
      double* row = za.data() + j * n;
      for (long k = 1; k < n - 1; ++k) {
        const double qa = row[n + k] * coef_zr(j, k) +
                          row[-n + k] * coef_zb(j, k) +
                          row[k + 1] * coef_zu(j, k) +
                          row[k - 1] * coef_zv(j, k) + coef_zz(j, k);
        row[k] += kRelax * (qa - row[k]);
      }
    }
  }
  return za;
}

double max_abs_diff(std::span<const double> a, std::span<const double> b) {
  ORWL_CHECK_MSG(a.size() == b.size(), "size mismatch in max_abs_diff");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    m = std::max(m, std::fabs(a[i] - b[i]));
  return m;
}

}  // namespace orwl::lk23
