#include "sim/lk23_model.h"

#include "support/assert.h"

namespace orwl::sim {

Report simulate_openmp_lk23(const topo::Topology& topo, const LinkCost& cost,
                            const Lk23SimSpec& spec) {
  ORWL_CHECK_MSG(spec.matrix_n >= 1 && spec.iterations >= 1 && spec.tasks >= 1,
                 "bad LK23 spec");
  const int P = spec.tasks;
  const int npus = topo.num_pus();

  // Row-strip fork-join: one worker per task, static schedule, global
  // barrier.
  Workload load;
  load.sync = SyncModel::ForkJoinBarrier;
  load.iterations = spec.iterations;
  load.threads.resize(static_cast<std::size_t>(P));
  const long points_per_worker =
      static_cast<long>(spec.matrix_n) * spec.matrix_n / P;
  for (SimThread& th : load.threads) {
    th.flops = static_cast<double>(points_per_worker) * spec.flops_per_point;
    th.mem_bytes =
        static_cast<double>(points_per_worker) * spec.bytes_per_point;
  }
  const double row_bytes = static_cast<double>(spec.matrix_n) * 8.0;
  for (int t = 0; t + 1 < P; ++t) load.edges.push_back({t, t + 1, row_bytes});

  // Workers run compact (one per PU while they fit) — generous to OpenMP;
  // the first-touch hotspot is what kills it. Serial initialization puts
  // every page in PU 0's domain (data_home_pu -1).
  Placement place;
  place.compute_pu.resize(static_cast<std::size_t>(P));
  for (int t = 0; t < P; ++t)
    place.compute_pu[static_cast<std::size_t>(t)] = t % npus;
  place.control_pu.assign(static_cast<std::size_t>(P), 0);
  place.data_home_pu.assign(static_cast<std::size_t>(P), -1);
  return simulate(topo, cost, load, place);
}

}  // namespace orwl::sim
