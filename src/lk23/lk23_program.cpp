#include "lk23/lk23_program.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>

#include "comm/patterns.h"
#include "support/assert.h"

namespace orwl::lk23 {

namespace {

// Priming ranks of the canonical liveness order (see lk23_program.h).
constexpr int kRankBlockWrite = 0;
constexpr int kRankFopRead = 1;
constexpr int kRankFopWrite = 2;
constexpr int kRankHaloRead = 3;

}  // namespace

ProgramDef define_lk23_program(Program& p, const Spec& spec,
                               double flops_per_point,
                               double bytes_per_point) {
  ORWL_CHECK_MSG(spec.n >= 2 && spec.bx >= 1 && spec.by >= 1 &&
                     spec.n % spec.bx == 0 && spec.n % spec.by == 0,
                 "block grid must divide the matrix");
  ORWL_CHECK_MSG(spec.iterations >= 0, "negative iteration count");

  ProgramDef def;
  def.spec = spec;
  const comm::BlockGrid g = spec.grid();
  const int B = g.blocks();
  const long n = spec.n;
  const int T = spec.iterations;
  const auto points_per_block = static_cast<double>(g.brows * g.bcols);

  // --- locations -----------------------------------------------------------
  def.blocks.reserve(static_cast<std::size_t>(B));
  for (int b = 0; b < B; ++b)
    def.blocks.push_back(p.location<double>(
        static_cast<std::size_t>(g.brows * g.bcols),
        "block" + std::to_string(b)));
  // Every block owns 8 frontier locations (paper Sec. III); exports at the
  // global border simply have no consumer.
  std::vector<std::array<Location<double>, comm::kAllDirs>> fronts(
      static_cast<std::size_t>(B));
  for (int b = 0; b < B; ++b)
    for (int d = 0; d < comm::kAllDirs; ++d)
      fronts[static_cast<std::size_t>(b)][static_cast<std::size_t>(d)] =
          p.location<double>(static_cast<std::size_t>(g.face_elems(d)),
                             "front" + std::to_string(b) + "d" +
                                 std::to_string(d));

  // --- main operations -----------------------------------------------------
  for (int b = 0; b < B; ++b) {
    const Location<double> block = def.blocks[static_cast<std::size_t>(b)];
    const long row0 = g.row0(b);
    const long col0 = g.col0(b);

    // The halo reads, indexed by the direction the neighbour lies in.
    std::array<Location<double>, comm::kAllDirs> halo_src{};
    TaskBuilder builder = p.task("main" + std::to_string(b));
    builder.writes(block, {.rank = kRankBlockWrite});
    for (int d = 0; d < comm::kAllDirs; ++d) {
      const int nb = g.neighbour(b, d);
      if (nb < 0) continue;
      // The neighbour in direction d exports towards us via its frontier
      // location for the opposite direction.
      halo_src[static_cast<std::size_t>(d)] =
          fronts[static_cast<std::size_t>(nb)]
                [static_cast<std::size_t>(comm::opposite(d))];
      builder.reads(halo_src[static_cast<std::size_t>(d)],
                    {.rank = kRankHaloRead});
    }

    Halo halo;
    for (int d = 0; d < comm::kAllDirs; ++d)
      halo[static_cast<std::size_t>(d)].resize(
          static_cast<std::size_t>(g.face_elems(d)));

    builder.iterations(T + 1)  // round 0 initializes, rounds 1..T sweep
        .cost(points_per_block * flops_per_point,
              points_per_block * bytes_per_point)
        .body([block, halo_src, halo, brows = g.brows, bcols = g.bcols, row0,
               col0, n](Step& s) mutable {
          if (s.first()) {
            // Initialize the block under the first write grant (owner
            // first touch).
            Section<double> za = s.write(block);
            init_block({za.data(), bcols, brows, bcols, row0, col0, n});
            return;
          }
          // Gather the previous iteration's frontiers into the halo.
          for (int d = 0; d < comm::kAllDirs; ++d) {
            const Location<double> src = halo_src[static_cast<std::size_t>(d)];
            if (!src.valid()) continue;
            s.read(src, [&](std::span<const double> face) {
              std::copy(face.begin(), face.end(),
                        halo[static_cast<std::size_t>(d)].begin());
            });
          }
          // Sweep under the write grant.
          Section<double> za = s.write(block);
          sweep_block({za.data(), bcols, brows, bcols, row0, col0, n}, halo);
        });
  }

  // --- frontier operations -------------------------------------------------
  for (int b = 0; b < B; ++b) {
    for (int d = 0; d < comm::kAllDirs; ++d) {
      const Location<double> block = def.blocks[static_cast<std::size_t>(b)];
      const Location<double> front =
          fronts[static_cast<std::size_t>(b)][static_cast<std::size_t>(d)];
      const auto face_bytes = static_cast<double>(front.bytes());
      p.task("fop" + std::to_string(b) + "d" + std::to_string(d))
          .reads(block, {.rank = kRankFopRead,
                         .touch_bytes = front.bytes()})
          .writes(front, {.rank = kRankFopWrite})
          .iterations(T)
          // Copying the frontier is ~1 flop per byte moved, touched twice.
          .cost(face_bytes, 2.0 * face_bytes)
          .body([block, front, g, d,
                 face = std::vector<double>(front.count())](Step& s) mutable {
            s.read(block, [&](std::span<const double> za) {
              g.copy_face(za.data(), g.bcols, d, face.data());
            });
            s.write(front, [&](std::span<double> out) {
              std::memcpy(out.data(), face.data(),
                          face.size() * sizeof(double));
            });
          });
    }
  }

  def.num_tasks = p.num_tasks();
  return def;
}

std::vector<double> fetch_field(Backend& backend, const ProgramDef& def) {
  const comm::BlockGrid g = def.spec.grid();
  const long n = def.spec.n;
  std::vector<double> za(static_cast<std::size_t>(n * n));
  for (int b = 0; b < g.blocks(); ++b) {
    const std::vector<double> src =
        backend.fetch(def.blocks[static_cast<std::size_t>(b)]);
    for (long r = 0; r < g.brows; ++r)
      std::memcpy(za.data() + (g.row0(b) + r) * n + g.col0(b),
                  src.data() + r * g.bcols,
                  static_cast<std::size_t>(g.bcols) * sizeof(double));
  }
  return za;
}

Spec spec_for_tasks(long n, int iterations, int tasks) {
  Spec spec;
  spec.iterations = iterations;
  const auto [bx, by] = comm::block_grid(tasks);
  spec.bx = bx;
  spec.by = by;
  const long step = std::lcm(static_cast<long>(bx), static_cast<long>(by));
  const long down = n / step * step;
  const long up = down + step;
  spec.n = (n - down <= up - n && down >= step) ? down : up;
  return spec;
}

RunReport run_lk23_program(const Spec& spec, place::Policy policy,
                           Backend& backend, ProgramDef* def_out) {
  Program p;
  ProgramDef def = define_lk23_program(p, spec);
  p.place(policy);
  const RunReport rep = p.run(backend);
  if (def_out != nullptr) *def_out = std::move(def);
  return rep;
}

}  // namespace orwl::lk23
