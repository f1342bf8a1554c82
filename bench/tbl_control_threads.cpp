// Table C (ablation): the control-thread extension of Algorithm 1.
// Algorithm 1 picks, in order: hyperthread siblings -> spare cores ->
// unmanaged. This table quantifies each strategy on a lock-heavy workload
// (grant delivery goes through the control thread, so its distance from
// the compute thread and the unmanaged OS-scheduling penalty dominate).

#include <iostream>

#include "comm/patterns.h"
#include "sim/simulator.h"
#include "support/table.h"
#include "support/time.h"
#include "treematch/treematch.h"

namespace {

using namespace orwl;

double run_case(const topo::Topology& topo, const comm::CommMatrix& m,
                treematch::ControlStrategy strategy, int acquires) {
  treematch::Options opts;
  opts.control = strategy;
  const auto tm = treematch::map_threads(topo, m, opts);

  const sim::LinkCost cost = sim::LinkCost::defaults_for(topo);
  sim::Workload load;
  const int n = m.order();
  for (int i = 0; i < n; ++i)
    load.threads.push_back({1e6, 1e5, acquires});
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (m.at(i, j) > 0) load.edges.push_back({i, j, m.at(i, j)});
  load.iterations = 10;

  sim::Placement place;
  place.compute_pu = tm.compute_pu;
  place.control_pu = tm.control_pu;
  place.data_home_pu = tm.compute_pu;
  return sim::simulate(topo, cost, load, place).total_seconds / 10.0;
}

}  // namespace

int main() {
  std::cout << "Table C: control-thread strategies of Algorithm 1\n"
               "workload: 16 threads, stencil pattern, lock-heavy "
               "(acquires/iteration swept)\n\n";

  const auto m = comm::stencil_matrix({4, 4, 512, 512});

  // SMT machine: hyperthread strategy available (32 PUs, 16 cores).
  const auto topo_smt = topo::Topology::synthetic("pack:2 core:8 pu:2");
  // No SMT but twice the cores: spare-core strategy available.
  const auto topo_spare = topo::Topology::synthetic("pack:2 core:16 pu:1");

  Table table({"acquires/iter", "machine", "strategy", "time/iter"});
  for (int acquires : {10, 100, 1000, 10000}) {
    table.add_row({std::to_string(acquires), "2x8 cores, SMT-2",
                   "hyperthread",
                   orwl::format_seconds(run_case(
                       topo_smt, m, treematch::ControlStrategy::Hyperthread,
                       acquires))});
    table.add_row({std::to_string(acquires), "2x8 cores, SMT-2", "unmanaged",
                   orwl::format_seconds(run_case(
                       topo_smt, m, treematch::ControlStrategy::Unmanaged,
                       acquires))});
    table.add_row({std::to_string(acquires), "2x16 cores", "spare-cores",
                   orwl::format_seconds(run_case(
                       topo_spare, m, treematch::ControlStrategy::SpareCores,
                       acquires))});
    table.add_row({std::to_string(acquires), "2x16 cores", "unmanaged",
                   orwl::format_seconds(run_case(
                       topo_spare, m, treematch::ControlStrategy::Unmanaged,
                       acquires))});
  }
  table.print(std::cout);
  std::cout << "\nExpectation: managed strategies win and their advantage "
               "grows with lock traffic;\nhyperthread keeps the grant path "
               "on-core, spare-cores keeps it in-package.\n";
  return 0;
}
