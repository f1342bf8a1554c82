// What-if scenario: use the NUMA cost model to predict how a workload
// would behave on machines you do not have — the workflow the simulator
// enables beyond reproducing the paper's figure.
//
// The program is the shared LK23 Program definition; for every
// hypothetical machine a SimBackend predicts it unplaced (ORWL NoBind) and
// TreeMatch-placed (ORWL Bind). The identical definition runs for real in
// stencil_heat / fig1_livermore_real — only the backend differs here. The
// OpenMP column is the fork-join model of sim/lk23_model.h, for comparison.

#include <iostream>

#include "lk23/lk23_program.h"
#include "sim/lk23_model.h"
#include "support/table.h"

int main() {
  using namespace orwl;

  struct Machine {
    const char* name;
    const char* spec;
  };
  const Machine machines[] = {
      {"laptop (1 socket x 8 cores)", "pack:1 core:8 pu:1"},
      {"workstation (2 x 16)", "pack:2 core:16 pu:1"},
      {"server (4 x 16, SMT-2)", "pack:4 core:16 pu:2"},
      {"paper SMP (24 x 8)", "pack:24 core:8 pu:1"},
      {"fat NUMA (8 x 24)", "pack:8 core:24 pu:1"},
  };

  std::cout << "What-if: LK23 (16384^2, 100 iterations), one block per "
               "core, three implementations\npredicted by the calibrated "
               "cost model on hypothetical machines\n\n";

  Table table({"machine", "cores", "OpenMP [s]", "ORWL NoBind [s]",
               "ORWL Bind [s]", "Bind payoff"});
  for (const Machine& m : machines) {
    const auto topo = topo::Topology::synthetic(m.spec);
    const sim::LinkCost cost = sim::LinkCost::defaults_for(topo);
    sim::Lk23SimSpec omp_spec;
    // Use physical cores (not SMT threads) as blocks, like the paper.
    int cores = topo.num_pus();
    if (!topo.arities().empty() && topo.arities().back() > 1)
      cores /= topo.arities().back();
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

    const double payoff = std::min(omp, nobind) / bind;
    table.add_row({m.name, std::to_string(cores), fmt(omp, 1),
                   fmt(nobind, 1), fmt(bind, 1), fmt(payoff, 2) + "x"});
  }
  table.print(std::cout);
  std::cout << "\nReading: on one socket placement buys almost nothing "
               "(the paper's observation);\nthe payoff appears with the "
               "second socket and grows with NUMA depth.\n";
  return 0;
}
