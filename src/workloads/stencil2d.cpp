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
#include <cstdint>
#include <utility>
#include <vector>

#include "support/assert.h"
#include "workloads/builders.h"
#include "workloads/grid.h"

namespace orwl::workloads::detail {

namespace {

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

/// Sequential global Jacobi with pinned border — the oracle.
std::vector<double> reference(const comm::BlockGrid& g, int iterations) {
  const long R = g.rows(), C = g.cols();
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
  const comm::BlockGrid g = grid_for(params);
  const int B = g.blocks();
  const int T = params.iterations;
  const long brows = g.brows, bcols = g.bcols;

  // Locations: one block field per task plus one face location per
  // (block, direction-with-neighbour) pair.
  std::vector<Location<double>> blocks;
  blocks.reserve(static_cast<std::size_t>(B));
  std::vector<Faces> faces(static_cast<std::size_t>(B));
  for (int b = 0; b < B; ++b) {
    blocks.push_back(p.location<double>(
        static_cast<std::size_t>(brows * bcols), "u" + std::to_string(b)));
    for (int d = 0; d < comm::kAxisDirs; ++d)
      if (g.neighbour(b, d) >= 0)
        faces[static_cast<std::size_t>(b)][static_cast<std::size_t>(d)] =
            p.location<double>(static_cast<std::size_t>(g.face_elems(d)),
                               "face" + std::to_string(b) + "d" +
                                   std::to_string(d));
  }

  const auto points = static_cast<double>(brows * bcols);
  for (int b = 0; b < B; ++b) {
    const long row0 = g.row0(b);
    const long col0 = g.col0(b);
    const Location<double> block = blocks[static_cast<std::size_t>(b)];
    const Faces own = faces[static_cast<std::size_t>(b)];
    const Faces halo_src = halo_sources(faces, g, b);

    TaskBuilder builder = p.task("heat" + std::to_string(b));
    builder.writes(block, {.rank = 0});
    for (const Location<double> f : own)
      if (f.valid()) builder.writes(f, {.rank = 1});
    for (const Location<double> f : halo_src)
      if (f.valid()) builder.reads(f, {.rank = 2});

    Halos halo;
    for (int d = 0; d < comm::kAxisDirs; ++d)
      halo[static_cast<std::size_t>(d)].resize(
          static_cast<std::size_t>(g.face_elems(d)));

    const long R = g.rows(), C = g.cols();
    builder.iterations(T + 1)  // round 0 initializes, rounds 1..T sweep
        .cost(4.0 * points, 16.0 * points)
        .body([=, row = std::vector<double>(static_cast<std::size_t>(bcols)),
               above = std::vector<double>(static_cast<std::size_t>(bcols)),
               halo = std::move(halo)](Step& s) mutable {
          const auto at = [bcols](long r, long c) {
            return static_cast<std::size_t>(r * bcols + c);
          };
          // Gather the neighbours' previous-iteration faces.
          if (!s.first()) gather_halos(s, halo_src, halo);
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
                const double* up = r > 0 ? above.data() : halo[N].data();
                const double* dn = r + 1 < brows ? out + bcols
                                                 : halo[S].data();
                jacobi_row(out, up, dn, me, static_cast<std::size_t>(bcols));
                const auto hr = static_cast<std::size_t>(r);
                out[0] = pin_w ? me[0]
                               : jacobi_point(up[0], dn[0], halo[W][hr],
                                              me[1]);
                out[last] = pin_e ? me[last]
                                  : jacobi_point(up[last], dn[last],
                                                 me[last - 1], halo[E][hr]);
              }
              std::swap(above, row);
            }
          }
          // Export the (new) boundary.
          export_faces(s, g, own, u.data());
        });
  }

  Built built;
  built.num_tasks = B;
  built.predicted = comm::stencil_matrix(g, /*corners=*/false);
  // Exact: the blocked sweep performs the reference's operations in the
  // reference's order, so any difference at all is a bug.
  built.verify = [g, T, blocks](Backend& backend, std::string& why) {
    return verify_blocks(backend, g, blocks, reference(g, T),
                         "global Jacobi reference", why);
  };
  return built;
}

}  // namespace orwl::workloads::detail
