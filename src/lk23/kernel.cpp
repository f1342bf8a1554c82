#include "lk23/kernel.h"

#include <algorithm>
#include <cmath>

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
  ORWL_CHECK_MSG(static_cast<long>(halo[N].size()) >= b.cols &&
                     static_cast<long>(halo[S].size()) >= b.cols &&
                     static_cast<long>(halo[W].size()) >= b.rows &&
                     static_cast<long>(halo[E].size()) >= b.rows,
                 "halo buffers smaller than block faces");
  for (long r = 0; r < b.rows; ++r) {
    const long gj = b.row0 + r;
    if (gj == 0 || gj == b.n - 1) continue;  // fixed global border
    double* row = b.za + r * b.stride;
    const double* up_row =
        r > 0 ? b.za + (r - 1) * b.stride : halo[N].data();
    const double* down_row =
        r < b.rows - 1 ? b.za + (r + 1) * b.stride : halo[S].data();
    for (long c = 0; c < b.cols; ++c) {
      const long gk = b.col0 + c;
      if (gk == 0 || gk == b.n - 1) continue;
      const double up = up_row[c];
      const double down = down_row[c];
      const double left = c > 0 ? row[c - 1] : halo[W][static_cast<std::size_t>(r)];
      const double right =
          c < b.cols - 1 ? row[c + 1] : halo[E][static_cast<std::size_t>(r)];
      const double qa = down * coef_zr(gj, gk) + up * coef_zb(gj, gk) +
                        right * coef_zu(gj, gk) + left * coef_zv(gj, gk) +
                        coef_zz(gj, gk);
      row[c] += kRelax * (qa - row[c]);
    }
  }
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
  halo[N].resize(static_cast<std::size_t>(bcols));
  halo[S].resize(static_cast<std::size_t>(bcols));
  halo[W].resize(static_cast<std::size_t>(brows));
  halo[E].resize(static_cast<std::size_t>(brows));

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
          halo[N][static_cast<std::size_t>(c)] = prev_at(row0 - 1, col0 + c);
          halo[S][static_cast<std::size_t>(c)] =
              prev_at(row0 + brows, col0 + c);
        }
        for (long r = 0; r < brows; ++r) {
          halo[W][static_cast<std::size_t>(r)] = prev_at(row0 + r, col0 - 1);
          halo[E][static_cast<std::size_t>(r)] =
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
