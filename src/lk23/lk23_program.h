#pragma once
// Livermore Kernel 23 expressed ONCE as an orwl::Program — the single
// program definition shared by the native and the simulated Figure 1
// benches (and the stencil example). The decomposition is the paper's
// (Sec. III): per block one main operation (init + Gauss–Seidel sweeps)
// plus eight frontier sub-operations exporting the block's faces, all
// communicating through ordered-RW-lock locations.
//
// Handle priming uses explicit ranks to fix the canonical liveness order
// (every location's writer is queued before its readers):
//   rank 0 — every main's write on its block,
//   rank 1 — every frontier op's read on its block,
//   rank 2 — every frontier op's write on its frontier location,
//   rank 3 — every main's reads on its neighbours' frontier locations.
//
// Running the definition on RuntimeBackend produces exactly the field of
// the blocked sequential reference (lk23::blocked_reference) under every
// placement policy; running it on SimBackend predicts the
// ORWL NoBind and Bind columns of the paper's Figure 1.

#include <vector>

#include "lk23/kernel.h"
#include "orwl/backend.h"
#include "orwl/program.h"

namespace orwl::lk23 {

/// Typed references into the shared definition, for result extraction.
struct ProgramDef {
  Spec spec;
  /// block b = y * bx + x, each holding (n/by)×(n/bx) doubles.
  std::vector<Location<double>> blocks;
  int num_tasks = 0;
};

/// THE shared LK23 program definition: build `spec` into `p`. The cost
/// annotations (flops / bytes per stencil point) only matter to
/// SimBackend; the defaults match the calibrated Figure-1 model.
ProgramDef define_lk23_program(Program& p, const Spec& spec,
                               double flops_per_point = 10.0,
                               double bytes_per_point = 48.0);

/// Assemble the full n×n field from a backend that ran the definition.
std::vector<double> fetch_field(Backend& backend, const ProgramDef& def);

/// Convenience for the benches: define, place with `policy`, run on `be`.
RunReport run_lk23_program(const Spec& spec, place::Policy policy,
                           Backend& backend, ProgramDef* def_out = nullptr);

/// Spec for `tasks` blocks (near-square comm::block_grid factorization) at
/// the matrix size nearest to `n` that the grid divides evenly — the
/// decomposition needs exact divisibility; the result lands within 0.1% of
/// n.
Spec spec_for_tasks(long n, int iterations, int tasks);

}  // namespace orwl::lk23
