// Block wavefront sweep workload: the global field is updated in row-major
// wavefront order, each point depending on its *already updated* west and
// north neighbours (the Smith-Waterman / SOR dependency shape). One task
// per block; a block waits for the west neighbour's east edge and the
// north neighbour's south edge of the SAME iteration, sweeps, then exports
// its own east/south edges — so iterations pipeline diagonally across the
// block grid instead of running in lock-step.
//
// Communication support is the axis-neighbour pattern with only the
// east/south pairs populated, i.e. exactly comm::stencil_matrix with
// corners off (each undirected pair appears once).

#include <cstdint>
#include <utility>
#include <vector>

#include "support/assert.h"
#include "workloads/builders.h"
#include "workloads/grid.h"

namespace orwl::workloads::detail {

namespace {

/// Deterministic initial value at global (i, j).
double init_h(long i, long j) {
  const auto h = static_cast<std::uint64_t>(i) * 40503ull +
                 static_cast<std::uint64_t>(j) * 2654435761ull;
  return static_cast<double>(h & 2047ull) / 2048.0;
}

/// West/north boundary feeds (outside the global field).
double west_boundary(long i) { return 0.5 + 0.25 * init_h(i, -1); }
double north_boundary(long j) { return 0.5 + 0.25 * init_h(-1, j); }

double wave_point(double west, double north, double old) {
  return 0.35 * west + 0.35 * north + 0.3 * old;
}

/// Updates column c of row `me` below row `up`; `west` carries the row's
/// last updated value from one column to the next.
void wave_step(double& west, const double* up, double* me, long c) {
  west = wave_point(west, up[c], me[c]);
  me[c] = west;
}

/// One in-place sweep of a brows x bcols block `h` in which every point
/// gets the reference's operands: `wcol` holds the west operands of the
/// first column, `nrow` the north operands of the first row. Rows go in
/// bands of four. At step t, row r+k of a band updates column t-k, so its
/// north value was updated one step earlier and the four rows are four
/// independent dependency chains instead of one.
void sweep_block(double* h, long brows, long bcols, const double* wcol,
                 const double* nrow) {
  long r = 0;
  for (; r + 4 <= brows; r += 4) {
    double* const r0 = h + r * bcols;
    double* const r1 = r0 + bcols;
    double* const r2 = r1 + bcols;
    double* const r3 = r2 + bcols;
    const double* const up = r > 0 ? r0 - bcols : nrow;
    double w0 = wcol[r], w1 = wcol[r + 1], w2 = wcol[r + 2], w3 = wcol[r + 3];
    // The first three steps and the last three update only the rows with
    // 0 <= t-k < bcols; the steps in between update all four.
    const auto edge = [&](long t) {
      if (t < bcols) wave_step(w0, up, r0, t);
      if (t >= 1 && t - 1 < bcols) wave_step(w1, r0, r1, t - 1);
      if (t >= 2 && t - 2 < bcols) wave_step(w2, r1, r2, t - 2);
      if (t >= 3 && t - 3 < bcols) wave_step(w3, r2, r3, t - 3);
    };
    long t = 0;
    for (; t < 3; ++t) edge(t);
    for (; t < bcols; ++t) {
      wave_step(w0, up, r0, t);
      wave_step(w1, r0, r1, t - 1);
      wave_step(w2, r1, r2, t - 2);
      wave_step(w3, r2, r3, t - 3);
    }
    for (; t < bcols + 3; ++t) edge(t);
  }
  for (; r < brows; ++r) {
    double* const me = h + r * bcols;
    const double* const up = r > 0 ? me - bcols : nrow;
    double west = wcol[r];
    for (long c = 0; c < bcols; ++c) wave_step(west, up, me, c);
  }
}

/// Sequential oracle: per iteration one row-major sweep over the global
/// field; west/north operands are the values already updated this sweep.
std::vector<double> reference(const comm::BlockGrid& g, int iterations) {
  const long R = g.rows(), C = g.cols();
  std::vector<double> h(static_cast<std::size_t>(R * C));
  for (long i = 0; i < R; ++i)
    for (long j = 0; j < C; ++j)
      h[static_cast<std::size_t>(i * C + j)] = init_h(i, j);
  for (int t = 0; t < iterations; ++t) {
    for (long i = 0; i < R; ++i) {
      for (long j = 0; j < C; ++j) {
        const double west = j > 0 ? h[static_cast<std::size_t>(i * C + j - 1)]
                                  : west_boundary(i);
        const double north = i > 0
                                 ? h[static_cast<std::size_t>((i - 1) * C + j)]
                                 : north_boundary(j);
        double& v = h[static_cast<std::size_t>(i * C + j)];
        v = wave_point(west, north, v);
      }
    }
  }
  return h;
}

}  // namespace

Built build_wavefront(Program& p, const Params& params) {
  ORWL_CHECK_MSG(params.tasks >= 1 && params.size >= 2 &&
                     params.iterations >= 1,
                 "wavefront needs tasks >= 1, size >= 2, iterations >= 1");
  const comm::BlockGrid g = grid_for(params);
  const int B = g.blocks();
  const int T = params.iterations;
  const long brows = g.brows, bcols = g.bcols;

  // Locations: the block fields plus an east edge (read by the east
  // neighbour) and a south edge (read by the south neighbour) where such a
  // neighbour exists. They are the blocks' E and S faces.
  std::vector<Location<double>> blocks;
  blocks.reserve(static_cast<std::size_t>(B));
  std::vector<Faces> faces(static_cast<std::size_t>(B));
  for (int b = 0; b < B; ++b) {
    blocks.push_back(p.location<double>(
        static_cast<std::size_t>(brows * bcols), "h" + std::to_string(b)));
    Faces& own = faces[static_cast<std::size_t>(b)];
    if (g.neighbour(b, E) >= 0)
      own[E] = p.location<double>(static_cast<std::size_t>(brows),
                                  "east" + std::to_string(b));
    if (g.neighbour(b, S) >= 0)
      own[S] = p.location<double>(static_cast<std::size_t>(bcols),
                                  "south" + std::to_string(b));
  }

  const auto points = static_cast<double>(brows * bcols);
  for (int b = 0; b < B; ++b) {
    const long row0 = g.row0(b);
    const long col0 = g.col0(b);
    const Location<double> block = blocks[static_cast<std::size_t>(b)];
    const Faces own = faces[static_cast<std::size_t>(b)];
    // Incoming edges: the west neighbour's E face and the north
    // neighbour's S face.
    const Faces in = halo_sources(faces, g, b);

    TaskBuilder builder = p.task("wave" + std::to_string(b));
    builder.writes(block, {.rank = 0});
    if (own[E].valid()) builder.writes(own[E], {.rank = 1});
    if (own[S].valid()) builder.writes(own[S], {.rank = 1});
    if (in[W].valid()) builder.reads(in[W], {.rank = 2});
    if (in[N].valid()) builder.reads(in[N], {.rank = 2});

    // The W halo holds the west operands of the block's first column and
    // the N halo the north operands of its first row: the neighbour's
    // edge, copied in every round, or else the global boundary feed, which
    // never changes.
    Halos halo;
    halo[W].resize(static_cast<std::size_t>(brows));
    halo[N].resize(static_cast<std::size_t>(bcols));
    if (!in[W].valid())
      for (long r = 0; r < brows; ++r)
        halo[W][static_cast<std::size_t>(r)] = west_boundary(row0 + r);
    if (!in[N].valid())
      for (long c = 0; c < bcols; ++c)
        halo[N][static_cast<std::size_t>(c)] = north_boundary(col0 + c);

    builder.iterations(T)
        .cost(3.0 * points, 16.0 * points)
        .body([=, halo = std::move(halo)](Step& s) mutable {
          const auto at = [bcols](long r, long c) {
            return static_cast<std::size_t>(r * bcols + c);
          };
          // The block location is the only copy of the block: sweep it in
          // place and export the edges from it before releasing it. No
          // other task declares it, so the grant is immediate and holding
          // it while the incoming edges arrive blocks nobody.
          const Section<double> cur = s.write(block);
          if (s.first())
            for (long r = 0; r < brows; ++r)
              for (long c = 0; c < bcols; ++c)
                cur[at(r, c)] = init_h(row0 + r, col0 + c);
          // Incoming edges carry the SAME iteration's updated values — the
          // FIFO alternation staggers the blocks into a wavefront.
          gather_halos(s, in, halo);
          sweep_block(cur.data(), brows, bcols, halo[W].data(), halo[N].data());
          export_faces(s, g, own, cur.data());
        });
  }

  Built built;
  built.num_tasks = B;
  built.predicted = comm::stencil_matrix(g, /*corners=*/false);
  // Exact: the blocked sweep performs the reference's operations in the
  // reference's order, so any difference at all is a bug.
  built.verify = [g, T, blocks](Backend& backend, std::string& why) {
    return verify_blocks(backend, g, blocks, reference(g, T),
                         "wavefront reference", why);
  };
  return built;
}

}  // namespace orwl::workloads::detail
