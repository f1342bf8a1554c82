#pragma once
// Internal: what the block-grid workloads (stencil2d, wavefront,
// phaseshift, and lk23's verify) share around comm::BlockGrid — the grid
// for a Params, the halo wiring between face locations, the halo gather,
// the face export and one exact per-block verify. Not part of the public
// workloads API.

#include <array>
#include <string>
#include <vector>

#include "comm/patterns.h"
#include "workloads/workloads.h"

namespace orwl::workloads::detail {

using enum comm::Dir;

/// A block's face locations, indexed by the axis comm::Dir; a direction
/// without one holds an invalid Location.
using Faces = std::array<Location<double>, comm::kAxisDirs>;

/// A block's halo buffers, indexed by the axis comm::Dir.
using Halos = std::array<std::vector<double>, comm::kAxisDirs>;

/// The grid for `params`: comm::block_grid(tasks) blocks of
/// max(2, size / bx) columns by max(2, size / by) rows.
comm::BlockGrid grid_for(const Params& params);

/// Block b's halo sources: in direction d, the face that the neighbour
/// there exports back towards b, faces[neighbour][opposite(d)].
Faces halo_sources(const std::vector<Faces>& faces, const comm::BlockGrid& g,
                   int b);

/// Copy each valid source into the halo of its direction, one read grant
/// each, in direction order.
void gather_halos(Step& s, const Faces& sources, Halos& halo);

/// Write each valid face of `own` from `block`, a contiguous g.brows x
/// g.bcols block, one write grant each, in direction order.
void export_faces(Step& s, const comm::BlockGrid& g, const Faces& own,
                  const double* block);

/// Exact check of every block location against `ref`, the rows() x cols()
/// global field in row-major order. On the first differing point returns
/// false and names its block, row and column in `why`, both values at
/// %.17g, as differing from `reference`.
bool verify_blocks(Backend& backend, const comm::BlockGrid& g,
                   const std::vector<Location<double>>& blocks,
                   const std::vector<double>& ref, const char* reference,
                   std::string& why);

}  // namespace orwl::workloads::detail
