#pragma once
// Simulation model of the OpenMP column of the paper's Figure 1: Livermore
// Kernel 23 as fork-join sweeps over row strips, a barrier per iteration
// and serial first touch (all data in PU 0's memory domain).
//
// The two ORWL columns are not modelled here: they run the shared
// lk23::define_lk23_program on a SimBackend, which derives their workload
// from the Program. OpenMP is a different programming model, not an ORWL
// program, so it keeps this hand-built workload on the same cost model.

#include "sim/simulator.h"

namespace orwl::sim {

struct Lk23SimSpec {
  int matrix_n = 16384;   ///< N×N doubles (paper: 16384)
  int iterations = 100;   ///< paper: 100
  int tasks = 192;        ///< fork-join workers == cores exercised
  /// Effective flops per stencil point (LK23: 4 mul + 4 add + relax).
  double flops_per_point = 10.0;
  /// Effective bytes streamed from memory per point and iteration (za plus
  /// the five coefficient arrays of the original kernel: ~6 streams).
  double bytes_per_point = 48.0;
};

/// Simulate the OpenMP LK23 on `topo`: one worker per task, bound compact
/// (one per PU while they fit), static row-strip schedule.
Report simulate_openmp_lk23(const topo::Topology& topo, const LinkCost& cost,
                            const Lk23SimSpec& spec);

}  // namespace orwl::sim
