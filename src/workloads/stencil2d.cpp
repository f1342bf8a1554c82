// 2-D Jacobi heat stencil workload: one ORWL task per block of a gy x gx
// block grid, exchanging block faces with the 4 axis neighbours through
// dedicated face locations. Unlike LK23 there are no frontier sub-tasks —
// the owner exports its own faces — so the measured flow matrix is exactly
// the axis-neighbour pattern of comm::stencil_matrix (corners off).
//
// Numerics: u'(i,j) = 0.25 * (N + S + W + E) over the interior of the
// global field; the global border is pinned to its initial values. Values
// outside the block come from the neighbours' previous-iteration faces,
// which is precisely global Jacobi — the sequential reference matches the
// parallel result bit for bit.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "comm/patterns.h"
#include "support/assert.h"
#include "workloads/builders.h"

namespace orwl::workloads::detail {

namespace {

enum Dir { kN = 0, kS = 1, kW = 2, kE = 3 };
constexpr int kDirX[] = {0, 0, -1, +1};
constexpr int kDirY[] = {-1, +1, 0, 0};
constexpr Dir kOpp[] = {kS, kN, kE, kW};

/// Deterministic initial temperature at global (i, j).
double init_u(long i, long j) {
  const auto h = static_cast<std::uint64_t>(i) * 2654435761ull +
                 static_cast<std::uint64_t>(j) * 97531ull;
  return static_cast<double>(h & 4095ull) / 4096.0;
}

double jacobi_point(double n, double s, double w, double e) {
  return 0.25 * (n + s + w + e);
}

/// Jacobi update of the interior columns 1..n-2 of one row: `up` and `dn`
/// are the old rows above and below, `me` the old row itself. The four
/// rows never overlap, which is what `__restrict` promises: `out` is the
/// row of the block section being written, `dn` the next row of that
/// section or the S halo, and `up` and `me` the sweep's two row buffers.
/// Both points of a pair are computed before either is stored, so GCC at
/// -O2 packs each pair into one SSE2 add/multiply sequence; every point
/// still adds its operands in jacobi_point's order.
void jacobi_row(double* __restrict out, const double* __restrict up,
                const double* __restrict dn, const double* __restrict me,
                std::size_t n) {
  std::size_t c = 1;
  for (; c + 2 < n; c += 2) {
    const double a = jacobi_point(up[c], dn[c], me[c - 1], me[c + 1]);
    const double b = jacobi_point(up[c + 1], dn[c + 1], me[c], me[c + 2]);
    out[c] = a;
    out[c + 1] = b;
  }
  if (c + 1 < n) out[c] = jacobi_point(up[c], dn[c], me[c - 1], me[c + 1]);
}

struct Geometry {
  int gx = 1, gy = 1;       ///< block grid
  long brows = 1, bcols = 1;  ///< per-block field size
  long rows = 1, cols = 1;    ///< global field size
};

Geometry geometry(const Params& params) {
  Geometry g;
  const auto [gx, gy] = comm::block_grid(params.tasks);
  g.gx = gx;
  g.gy = gy;
  g.bcols = std::max<long>(2, params.size / gx);
  g.brows = std::max<long>(2, params.size / gy);
  g.rows = g.brows * gy;
  g.cols = g.bcols * gx;
  return g;
}

/// Sequential global Jacobi with pinned border — the oracle.
std::vector<double> reference(const Geometry& g, int iterations) {
  const long R = g.rows, C = g.cols;
  std::vector<double> cur(static_cast<std::size_t>(R * C));
  for (long i = 0; i < R; ++i)
    for (long j = 0; j < C; ++j)
      cur[static_cast<std::size_t>(i * C + j)] = init_u(i, j);
  std::vector<double> next = cur;
  for (int t = 0; t < iterations; ++t) {
    for (long i = 1; i + 1 < R; ++i)
      for (long j = 1; j + 1 < C; ++j)
        next[static_cast<std::size_t>(i * C + j)] = jacobi_point(
            cur[static_cast<std::size_t>((i - 1) * C + j)],
            cur[static_cast<std::size_t>((i + 1) * C + j)],
            cur[static_cast<std::size_t>(i * C + j - 1)],
            cur[static_cast<std::size_t>(i * C + j + 1)]);
    std::swap(cur, next);
  }
  return cur;
}

}  // namespace

Built build_stencil2d(Program& p, const Params& params) {
  ORWL_CHECK_MSG(params.tasks >= 1 && params.size >= 2 &&
                     params.iterations >= 0,
                 "stencil2d needs tasks >= 1, size >= 2, iterations >= 0");
  const Geometry g = geometry(params);
  const int B = g.gx * g.gy;
  const int T = params.iterations;
  const long brows = g.brows, bcols = g.bcols;

  auto neighbour = [&](int b, int d) -> int {
    const int nx = b % g.gx + kDirX[d];
    const int ny = b / g.gx + kDirY[d];
    if (nx < 0 || ny < 0 || nx >= g.gx || ny >= g.gy) return -1;
    return ny * g.gx + nx;
  };
  const auto face_elems = [brows, bcols](int d) {
    return static_cast<std::size_t>(d == kW || d == kE ? brows : bcols);
  };

  // Locations: one block field per task plus one face location per
  // (block, direction-with-neighbour) pair.
  std::vector<Location<double>> blocks;
  blocks.reserve(static_cast<std::size_t>(B));
  std::vector<std::array<Location<double>, 4>> faces(
      static_cast<std::size_t>(B));
  for (int b = 0; b < B; ++b) {
    blocks.push_back(p.location<double>(
        static_cast<std::size_t>(brows * bcols), "u" + std::to_string(b)));
    for (int d = 0; d < 4; ++d)
      if (neighbour(b, d) >= 0)
        faces[static_cast<std::size_t>(b)][static_cast<std::size_t>(d)] =
            p.location<double>(face_elems(d), "face" + std::to_string(b) +
                                                  "d" + std::to_string(d));
  }

  const auto points = static_cast<double>(brows * bcols);
  for (int b = 0; b < B; ++b) {
    const long row0 = (b / g.gx) * brows;
    const long col0 = (b % g.gx) * bcols;
    const Location<double> block = blocks[static_cast<std::size_t>(b)];
    const std::array<Location<double>, 4> own =
        faces[static_cast<std::size_t>(b)];
    // My halo in direction d is the neighbour's face pointing back at me.
    std::array<Location<double>, 4> halo_src{};
    for (int d = 0; d < 4; ++d) {
      const int nb = neighbour(b, d);
      if (nb >= 0)
        halo_src[static_cast<std::size_t>(d)] =
            faces[static_cast<std::size_t>(nb)]
                 [static_cast<std::size_t>(kOpp[d])];
    }

    TaskBuilder builder = p.task("heat" + std::to_string(b));
    builder.writes(block, {.rank = 0});
    for (int d = 0; d < 4; ++d)
      if (own[static_cast<std::size_t>(d)].valid())
        builder.writes(own[static_cast<std::size_t>(d)], {.rank = 1});
    for (int d = 0; d < 4; ++d)
      if (halo_src[static_cast<std::size_t>(d)].valid())
        builder.reads(halo_src[static_cast<std::size_t>(d)], {.rank = 2});

    const long R = g.rows, C = g.cols;
    builder.iterations(T + 1)  // round 0 initializes, rounds 1..T sweep
        .cost(4.0 * points, 16.0 * points)
        .body([=, row = std::vector<double>(static_cast<std::size_t>(bcols)),
               above = std::vector<double>(static_cast<std::size_t>(bcols)),
               halo = std::array<std::vector<double>, 4>{}](Step& s) mutable {
          const auto at = [bcols](long r, long c) {
            return static_cast<std::size_t>(r * bcols + c);
          };
          if (s.first()) {
            for (int d = 0; d < 4; ++d)
              halo[static_cast<std::size_t>(d)].assign(face_elems(d), 0.0);
          } else {
            // Gather the neighbours' previous-iteration faces.
            for (int d = 0; d < 4; ++d) {
              const Location<double> src = halo_src[static_cast<std::size_t>(d)];
              if (!src.valid()) continue;
              s.read(src, [&](std::span<const double> face) {
                std::copy(face.begin(), face.end(),
                          halo[static_cast<std::size_t>(d)].begin());
              });
            }
          }
          // The block location is the only copy of the block: sweep it in
          // place and export the faces from it before releasing it. No
          // other task declares it, so the grant is immediate and holding
          // it across the face writes blocks nobody.
          const Section<double> u = s.write(block);
          if (s.first()) {
            for (long r = 0; r < brows; ++r)
              for (long c = 0; c < bcols; ++c)
                u[at(r, c)] = init_u(row0 + r, col0 + c);
          } else {
            // One row at a time. Row r is copied into `row` before it is
            // overwritten; `above` holds the old row r-1 (the N halo at the
            // first row) and row r+1 of the block is not swept yet (the S
            // halo at the last row). jacobi_row sweeps the interior; the
            // two edge columns, which need the W/E halos, go after it.
            // bcols >= 2, so both edge columns exist and are distinct.
            const bool pin_w = col0 == 0, pin_e = col0 + bcols == C;
            const auto last = static_cast<std::size_t>(bcols - 1);
            for (long r = 0; r < brows; ++r) {
              double* out = &u[at(r, 0)];
              std::copy(out, out + bcols, row.begin());
              const long gi = row0 + r;
              if (gi != 0 && gi != R - 1) {  // else a pinned border row
                const double* me = row.data();
                const double* up = r > 0 ? above.data() : halo[kN].data();
                const double* dn = r + 1 < brows ? out + bcols
                                                 : halo[kS].data();
                jacobi_row(out, up, dn, me, static_cast<std::size_t>(bcols));
                const auto hr = static_cast<std::size_t>(r);
                out[0] = pin_w ? me[0]
                               : jacobi_point(up[0], dn[0], halo[kW][hr],
                                              me[1]);
                out[last] = pin_e ? me[last]
                                  : jacobi_point(up[last], dn[last],
                                                 me[last - 1], halo[kE][hr]);
              }
              std::swap(above, row);
            }
          }
          // Export the (new) boundary.
          for (int d = 0; d < 4; ++d) {
            const Location<double> f = own[static_cast<std::size_t>(d)];
            if (!f.valid()) continue;
            s.write(f, [&](std::span<double> out) {
              switch (d) {
                case kN:
                  for (long c = 0; c < bcols; ++c)
                    out[static_cast<std::size_t>(c)] = u[at(0, c)];
                  break;
                case kS:
                  for (long c = 0; c < bcols; ++c)
                    out[static_cast<std::size_t>(c)] = u[at(brows - 1, c)];
                  break;
                case kW:
                  for (long r = 0; r < brows; ++r)
                    out[static_cast<std::size_t>(r)] = u[at(r, 0)];
                  break;
                case kE:
                  for (long r = 0; r < brows; ++r)
                    out[static_cast<std::size_t>(r)] = u[at(r, bcols - 1)];
                  break;
              }
            });
          }
        });
  }

  Built built;
  built.num_tasks = B;
  comm::StencilSpec st;
  st.blocks_x = g.gx;
  st.blocks_y = g.gy;
  st.block_rows = static_cast<int>(brows);
  st.block_cols = static_cast<int>(bcols);
  st.corners = false;
  built.predicted = comm::stencil_matrix(st);
  // Exact: the blocked sweep performs the reference's operations in the
  // reference's order, so any difference at all is a bug.
  built.verify = [g, T, blocks](Backend& backend, std::string& why) {
    const std::vector<double> ref = reference(g, T);
    for (int b = 0; b < g.gx * g.gy; ++b) {
      const long row0 = (b / g.gx) * g.brows;
      const long col0 = (b % g.gx) * g.bcols;
      const std::vector<double> got =
          backend.fetch(blocks[static_cast<std::size_t>(b)]);
      for (long r = 0; r < g.brows; ++r)
        for (long c = 0; c < g.bcols; ++c) {
          const double want =
              ref[static_cast<std::size_t>((row0 + r) * g.cols + col0 + c)];
          const double have =
              got[static_cast<std::size_t>(r * g.bcols + c)];
          if (have == want) continue;
          char msg[256];
          std::snprintf(msg, sizeof msg,
                        "block %d row %ld column %ld differs from the global "
                        "Jacobi reference: got %.17g, want %.17g",
                        b, r, c, have, want);
          why = msg;
          return false;
        }
    }
    return true;
  };
  return built;
}

}  // namespace orwl::workloads::detail
