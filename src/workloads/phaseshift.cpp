// Phase-shifting workload: a block-grid stencil that switches to a
// transpose exchange halfway through the run — the communication pattern
// the online re-placer (place/replace.h) exists for. Phase A (rounds
// [0, H)) exchanges faces with the 4 axis neighbours, exactly like
// stencil2d; phase B (rounds [H, T)) exchanges a chunk with the transpose
// partner (block (x, y) with block (y, x)), the worst case for any mapping
// that clustered grid neighbours. A static TreeMatch placement has to
// compromise between the two patterns; ReplacementPolicy::on_drift detects
// the shift from the measured per-epoch flow matrix and re-places mid-run.
//
// Phase A and phase B use disjoint location sets whose accesses carry
// round windows (AccessOpts::from_round/until_round), so the simulator
// derives the same two-phase schedule the runtime measures. Tasks
// accumulate everything they read into a per-task accumulator verified
// against a closed-form sequential replay with identical summation order —
// equality is exact.

#include <sstream>
#include <vector>

#include "support/assert.h"
#include "workloads/builders.h"
#include "workloads/grid.h"

namespace orwl::workloads::detail {

namespace {

/// Face element k published by task i in direction d at round r.
double face_value(int i, int d, int r, long k) {
  return static_cast<double>((i * 131 + d * 37 + r * 17 + k * 7) & 255) /
         256.0;
}

/// Transpose-chunk element k published by task i at round r.
double chunk_value(int i, int r, long k) {
  return static_cast<double>((i * 59 + r * 23 + k * 11) & 255) / 256.0;
}

}  // namespace

Built build_phaseshift(Program& p, const Params& params) {
  ORWL_CHECK_MSG(params.tasks >= 1 && params.size >= 1 &&
                     params.iterations >= 1,
                 "phaseshift needs tasks >= 1, size >= 1, iterations >= 1");
  // Only the grid's shape matters: faces hold `size` doubles each.
  const comm::BlockGrid g = grid_for(params);
  const int B = g.blocks();
  const int T = params.iterations;
  const int H = (T + 1) / 2;  // first transpose round; T == 1 has no phase B
  const auto elems = static_cast<std::size_t>(params.size);
  const auto bytes = static_cast<double>(elems * sizeof(double));

  // Transpose partner of block (x, y) is block (y, x) — defined when it
  // lies inside the (possibly non-square) grid and is not the block
  // itself. The relation is symmetric, so partners pair up.
  const auto partner = [g, T, H](int b) -> int {
    if (T <= H) return -1;  // no phase B rounds at all
    const int x = b % g.bx;
    const int y = b / g.bx;
    if (x == y || x >= g.by || y >= g.bx) return -1;
    return x * g.bx + y;
  };

  // Locations: per-direction faces (phase A) and the transpose chunk
  // (phase B) — disjoint sets, so at the shift both sides of every face
  // simply stop touching it and the primed chunk requests start being
  // consumed.
  std::vector<Faces> faces(static_cast<std::size_t>(B));
  std::vector<Location<double>> chunks(static_cast<std::size_t>(B));
  std::vector<Location<double>> accs;
  accs.reserve(static_cast<std::size_t>(B));
  for (int b = 0; b < B; ++b) {
    for (int d = 0; d < comm::kAxisDirs; ++d)
      if (g.neighbour(b, d) >= 0)
        faces[static_cast<std::size_t>(b)][static_cast<std::size_t>(d)] =
            p.location<double>(elems, "face" + std::to_string(b) + "d" +
                                          std::to_string(d));
    if (partner(b) >= 0)
      chunks[static_cast<std::size_t>(b)] =
          p.location<double>(elems, "tchunk" + std::to_string(b));
    accs.push_back(p.location<double>(1, "acc" + std::to_string(b)));
  }

  for (int b = 0; b < B; ++b) {
    const Faces own = faces[static_cast<std::size_t>(b)];
    const Faces halo = halo_sources(faces, g, b);
    const int pb = partner(b);
    const Location<double> out_chunk = chunks[static_cast<std::size_t>(b)];
    const Location<double> in_chunk =
        pb >= 0 ? chunks[static_cast<std::size_t>(pb)] : Location<double>{};
    const Location<double> acc_loc = accs[static_cast<std::size_t>(b)];

    TaskBuilder builder = p.task("shift" + std::to_string(b));
    for (const Location<double> f : own)
      if (f.valid()) builder.writes(f, {.rank = 0, .until_round = H});
    if (out_chunk.valid())
      builder.writes(out_chunk, {.rank = 0, .from_round = H});
    for (const Location<double> f : halo)
      if (f.valid()) builder.reads(f, {.rank = 1, .until_round = H});
    if (in_chunk.valid())
      builder.reads(in_chunk, {.rank = 1, .from_round = H});
    builder.writes(acc_loc, {.rank = 2});

    builder.iterations(T)
        .cost(1024.0, 4096.0)  // light: the pattern, not the flops, matters
        .body([b, H, elems, own, halo, out_chunk, in_chunk, acc_loc,
               acc = 0.0](Step& s) mutable {
          if (s.first()) acc = 0.0;
          const int r = s.round();
          if (r < H) {
            for (int d = 0; d < comm::kAxisDirs; ++d) {
              const Location<double> f = own[static_cast<std::size_t>(d)];
              if (!f.valid()) continue;
              s.write(f, [&](std::span<double> outv) {
                for (std::size_t k = 0; k < elems; ++k)
                  outv[k] = face_value(b, d, r, static_cast<long>(k));
              });
            }
            for (const Location<double> f : halo) {
              if (!f.valid()) continue;
              s.read(f, [&](std::span<const double> in) {
                for (const double v : in) acc += v;
              });
            }
          } else {
            if (out_chunk.valid())
              s.write(out_chunk, [&](std::span<double> outv) {
                for (std::size_t k = 0; k < elems; ++k)
                  outv[k] = chunk_value(b, r, static_cast<long>(k));
              });
            if (in_chunk.valid())
              s.read(in_chunk, [&](std::span<const double> in) {
                for (const double v : in) acc += v;
              });
          }
          s.write(acc_loc,
                  [&](std::span<double> store) { store[0] = acc; });
        });
  }

  Built built;
  built.num_tasks = B;
  comm::CommMatrix predicted(B);
  for (int b = 0; b < B; ++b) {
    for (int d = 0; d < comm::kAxisDirs; ++d)
      if (g.neighbour(b, d) >= 0) predicted.add(b, g.neighbour(b, d), bytes);
    if (partner(b) >= 0) predicted.add(b, partner(b), bytes);
  }
  built.predicted = predicted;
  built.verify = [g, T, H, elems, partner, accs](
                     Backend& backend, std::string& why) {
    for (int b = 0; b < g.blocks(); ++b) {
      double want = 0.0;
      for (int r = 0; r < T; ++r) {
        if (r < H) {
          for (int d = 0; d < comm::kAxisDirs; ++d) {
            const int nb = g.neighbour(b, d);
            if (nb < 0) continue;
            for (std::size_t k = 0; k < elems; ++k)
              want += face_value(nb, comm::opposite(d), r,
                                 static_cast<long>(k));
          }
        } else if (partner(b) >= 0) {
          for (std::size_t k = 0; k < elems; ++k)
            want += chunk_value(partner(b), r, static_cast<long>(k));
        }
      }
      const double have =
          backend.fetch(accs[static_cast<std::size_t>(b)])[0];
      if (have != want) {
        std::ostringstream os;
        os << "task " << b << " accumulated " << have << ", expected "
           << want;
        why = os.str();
        return false;
      }
    }
    return true;
  };
  return built;
}

}  // namespace orwl::workloads::detail
