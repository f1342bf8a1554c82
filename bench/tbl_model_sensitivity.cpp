// Table F (ablation): sensitivity of the simulated Figure 1 to the cost
// model's free parameters (docs/architecture.md, "Simulated run"). This
// sweep perturbs five LinkCost knobs by 2x in both directions and reports
// the full-machine times and speedups. The claim being defended: ORWL Bind
// beating both NoBind and OpenMP at 192 cores is a property of the
// topology-aware placement, not of a lucky parameter choice. Exits 1 when
// Bind loses under any perturbation (the model_sensitivity_check ctest).
//
// As in fig1_livermore_sim, the ORWL columns run the shared
// lk23::define_lk23_program on a SimBackend, unplaced (NoBind) and
// TreeMatch-placed (Bind); the OpenMP column is the fork-join model of
// sim/lk23_model.h.

#include <functional>
#include <iostream>

#include "lk23/lk23_program.h"
#include "sim/lk23_model.h"
#include "support/table.h"

namespace {

using namespace orwl;

struct Knob {
  const char* name;
  std::function<void(sim::LinkCost&, double)> scale;
};

}  // namespace

int main() {
  const auto topo = topo::Topology::paper_machine();
  const sim::Lk23SimSpec omp_spec;  // full paper configuration, 192 tasks
  const lk23::Spec spec = lk23::spec_for_tasks(
      omp_spec.matrix_n, omp_spec.iterations, omp_spec.tasks);

  const Knob knobs[] = {
      {"domain_bandwidth",
       [](sim::LinkCost& c, double f) { c.domain_bandwidth *= f; }},
      {"compute_rate",
       [](sim::LinkCost& c, double f) { c.compute_rate *= f; }},
      {"cross-package bw",
       [](sim::LinkCost& c, double f) { c.bandwidth[0] *= f; }},
      {"cross-package lat",
       [](sim::LinkCost& c, double f) { c.latency[0] *= f; }},
      {"unmanaged grant penalty",
       [](sim::LinkCost& c, double f) { c.unmanaged_grant_penalty *= f; }},
  };

  std::cout << "Table F: cost-model sensitivity at 192 cores (16384^2, 100 "
               "iterations)\nEach knob scaled x0.5 / x1 / x2.\n"
               "'Bind wins' (the paper's core claim) must hold everywhere; "
               "the NoBind-vs-OpenMP\nordering is expected to be "
               "calibration-sensitive (both lose for different reasons).\n\n";

  Table table({"knob", "scale", "OpenMP [s]", "NoBind [s]", "Bind [s]",
               "Bind vs OpenMP", "vs NoBind", "Bind wins", "full order"});
  bool bind_always_wins = true;
  for (const Knob& knob : knobs) {
    for (double f : {0.5, 1.0, 2.0}) {
      sim::LinkCost cost = sim::LinkCost::defaults_for(topo);
      knob.scale(cost, f);
      const double omp =
          sim::simulate_openmp_lk23(topo, cost, omp_spec).total_seconds;
      SimBackend nobind_be(topo.clone(), cost);
      const double nobind =
          lk23::run_lk23_program(spec, place::Policy::None, nobind_be)
              .seconds;
      SimBackend bind_be(topo.clone(), cost);
      const double bind =
          lk23::run_lk23_program(spec, place::Policy::TreeMatch, bind_be)
              .seconds;
      const bool wins = bind < nobind && bind < omp;
      bind_always_wins = bind_always_wins && wins;
      table.add_row({knob.name, fmt(f, 1), fmt(omp, 1), fmt(nobind, 1),
                     fmt(bind, 1), fmt(omp / bind, 1), fmt(nobind / bind, 1),
                     wins ? "ok" : "VIOLATED",
                     nobind < omp ? "NoBind<OpenMP" : "OpenMP<NoBind"});
    }
  }
  table.print(std::cout);
  std::cout << "\nBind wins under every perturbation: "
            << (bind_always_wins ? "yes" : "NO — investigate") << '\n';
  return bind_always_wins ? 0 : 1;
}
