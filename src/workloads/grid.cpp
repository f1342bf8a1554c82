#include "workloads/grid.h"

#include <algorithm>
#include <cstdio>

namespace orwl::workloads::detail {

comm::BlockGrid grid_for(const Params& params) {
  const auto [bx, by] = comm::block_grid(params.tasks);
  return {bx, by, std::max<long>(2, params.size / by),
          std::max<long>(2, params.size / bx)};
}

Faces halo_sources(const std::vector<Faces>& faces, const comm::BlockGrid& g,
                   int b) {
  Faces src{};
  for (int d = 0; d < comm::kAxisDirs; ++d) {
    const int nb = g.neighbour(b, d);
    if (nb >= 0)
      src[static_cast<std::size_t>(d)] =
          faces[static_cast<std::size_t>(nb)]
               [static_cast<std::size_t>(comm::opposite(d))];
  }
  return src;
}

void gather_halos(Step& s, const Faces& sources, Halos& halo) {
  for (std::size_t d = 0; d < sources.size(); ++d) {
    if (!sources[d].valid()) continue;
    s.read(sources[d], [&](std::span<const double> face) {
      std::copy(face.begin(), face.end(), halo[d].begin());
    });
  }
}

void export_faces(Step& s, const comm::BlockGrid& g, const Faces& own,
                  const double* block) {
  for (int d = 0; d < comm::kAxisDirs; ++d) {
    const Location<double> f = own[static_cast<std::size_t>(d)];
    if (!f.valid()) continue;
    s.write(f, [&](std::span<double> out) {
      g.copy_face(block, g.bcols, d, out.data());
    });
  }
}

bool verify_blocks(Backend& backend, const comm::BlockGrid& g,
                   const std::vector<Location<double>>& blocks,
                   const std::vector<double>& ref, const char* reference,
                   std::string& why) {
  for (int b = 0; b < g.blocks(); ++b) {
    const std::vector<double> got =
        backend.fetch(blocks[static_cast<std::size_t>(b)]);
    for (long r = 0; r < g.brows; ++r)
      for (long c = 0; c < g.bcols; ++c) {
        const double want = ref[static_cast<std::size_t>(
            (g.row0(b) + r) * g.cols() + g.col0(b) + c)];
        const double have = got[static_cast<std::size_t>(r * g.bcols + c)];
        if (have == want) continue;
        char msg[256];
        std::snprintf(msg, sizeof msg,
                      "block %d row %ld column %ld differs from the %s: got "
                      "%.17g, want %.17g",
                      b, r, c, reference, have, want);
        why = msg;
        return false;
      }
  }
  return true;
}

}  // namespace orwl::workloads::detail
