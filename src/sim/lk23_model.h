#pragma once
// Simulation models of the three Livermore Kernel 23 implementations of
// the paper's Figure 1:
//
//  * OpenMP      — fork-join sweeps over row strips, barrier per iteration,
//                  serial first touch (all data in PU 0's memory domain),
//  * ORWL NoBind — the ORWL block decomposition (one main operation plus
//                  one frontier operation per neighbour, each its own
//                  thread) with all threads left to the OS scheduler,
//  * ORWL Bind   — the same decomposition bound with Algorithm 1
//                  (TreeMatch + oversubscription + control threads).
//
// The models share the cost model and the machine; only placement and
// synchronization differ — exactly the variable the paper isolates.

#include <cstdint>
#include <string>

#include "sim/simulator.h"
#include "treematch/treematch.h"

namespace orwl::sim {

enum class Lk23Impl { OpenMP, OrwlNoBind, OrwlBind };

const char* to_string(Lk23Impl impl);

struct Lk23SimSpec {
  int matrix_n = 16384;   ///< N×N doubles (paper: 16384)
  int iterations = 100;   ///< paper: 100
  int tasks = 192;        ///< number of blocks == cores exercised
  /// Effective flops per stencil point (LK23: 4 mul + 4 add + relax).
  double flops_per_point = 10.0;
  /// Effective bytes streamed from memory per point and iteration (za plus
  /// the five coefficient arrays of the original kernel: ~6 streams).
  double bytes_per_point = 48.0;
  std::uint64_t seed = 7;
};

/// A fully built model: workload + placement (+ the TreeMatch result for
/// OrwlBind, for diagnostics).
struct Lk23Model {
  Workload load;
  Placement place;
  treematch::Result mapping;  ///< only populated for OrwlBind
  int num_threads = 0;
};

Lk23Model build_lk23_model(Lk23Impl impl, const topo::Topology& topo,
                           const Lk23SimSpec& spec);

/// Convenience: build and run.
Report simulate_lk23(Lk23Impl impl, const topo::Topology& topo,
                     const LinkCost& cost, const Lk23SimSpec& spec);

}  // namespace orwl::sim
