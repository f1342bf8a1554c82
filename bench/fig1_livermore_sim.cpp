// Figure 1 (simulated): processing time of the three Livermore Kernel 23
// implementations — OpenMP, ORWL NoBind, ORWL Bind — on the paper's machine
// (24 sockets x 8 cores = 192 cores), 16384x16384 doubles, 100 iterations.
//
// The two ORWL columns run the ONE shared program definition
// (lk23::define_lk23_program) on a SimBackend targeting the paper machine;
// fig1_livermore_real runs the identical definition on a RuntimeBackend —
// the comparison differs only in backend selection. The OpenMP column is
// the fork-join model of sim/lk23_model.h (a different programming model,
// not an ORWL program).
//
// The physical SMP is unavailable, so the run executes on the calibrated
// NUMA cost model (src/sim). Expected shape (paper): ORWL Bind reaches
// ~11 s at full machine, ~5x faster than OpenMP and ~2.8x faster than ORWL
// NoBind; the non-topology-aware versions stop improving beyond one or two
// sockets.

#include <cstdlib>
#include <iostream>

#include "lk23/lk23_program.h"
#include "sim/lk23_model.h"
#include "support/table.h"

int main() {
  using namespace orwl;
  const auto topo = topo::Topology::paper_machine();
  const sim::LinkCost cost = sim::LinkCost::defaults_for(topo);

  std::cout << "Figure 1 (simulated 24-socket x 8-core SMP, 192 cores)\n"
            << "Livermore Kernel 23, 16384x16384 doubles, 100 iterations\n"
            << "processing time in seconds (lower is better)\n\n";

  Table table({"cores", "OpenMP", "ORWL NoBind", "ORWL Bind",
               "Bind speedup vs OpenMP", "vs NoBind"});

  const int sweep[] = {8, 16, 32, 48, 64, 96, 128, 160, 192};
  double best_bind = 1e30, omp_at_best = 0, nobind_at_best = 0;
  for (int cores : sweep) {
    sim::Lk23SimSpec omp_spec;
    omp_spec.tasks = cores;
    const double omp =
        sim::simulate_openmp_lk23(topo, cost, omp_spec).total_seconds;

    const lk23::Spec spec =
        lk23::spec_for_tasks(omp_spec.matrix_n, omp_spec.iterations, cores);

    SimBackend nobind_be(topo.clone(), cost);
    const double nobind =
        lk23::run_lk23_program(spec, place::Policy::None, nobind_be).seconds;

    SimBackend bind_be(topo.clone(), cost);
    const double bind =
        lk23::run_lk23_program(spec, place::Policy::TreeMatch, bind_be)
            .seconds;

    if (bind < best_bind) {
      best_bind = bind;
      omp_at_best = omp;
      nobind_at_best = nobind;
    }
    table.add_row({std::to_string(cores), fmt(omp, 1), fmt(nobind, 1),
                   fmt(bind, 1), fmt(omp / bind, 1), fmt(nobind / bind, 1)});
  }
  table.print(std::cout);

  std::cout << "\nminimum ORWL Bind time: " << fmt(best_bind, 1)
            << " s  (paper: ~11 s)\n"
            << "speedup at best point:  " << fmt(omp_at_best / best_bind, 1)
            << "x vs OpenMP (paper: ~5x), "
            << fmt(nobind_at_best / best_bind, 1)
            << "x vs ORWL NoBind (paper: ~2.8x)\n";
  return 0;
}
