// Figure 1 (native): the same three Livermore Kernel 23 implementations
// executed for real on the host machine (scaled problem — the host has no
// 192-core SMP). This validates the runtime and the binding machinery; the
// full-scale shape is reproduced by fig1_livermore_sim.
//
// The two ORWL columns run the ONE shared program definition
// (lk23::define_lk23_program) on a RuntimeBackend; fig1_livermore_sim runs
// the identical definition on a SimBackend — the comparison differs only
// in backend selection.
//
// Environment knobs:
//   ORWL_BENCH_N      matrix size (default 3072; must be divisible by the
//                     block grids of the sweep)
//   ORWL_BENCH_ITERS  iterations (default 20)

#include <cstdlib>
#include <iostream>

#include "comm/patterns.h"
#include "lk23/forkjoin_impl.h"
#include "lk23/lk23_program.h"
#include "support/table.h"

namespace {

int env_int(const char* name, int fallback) {
  if (const char* v = std::getenv(name)) return std::atoi(v);
  return fallback;
}

}  // namespace

int main() {
  using namespace orwl;
  const auto topo = topo::Topology::host();
  const int host_pus = topo.num_pus();
  const long n = env_int("ORWL_BENCH_N", 3072);
  const int iters = env_int("ORWL_BENCH_ITERS", 20);

  std::cout << "Figure 1 (native, scaled): LK23 " << n << "x" << n << ", "
            << iters << " iterations, host with " << host_pus << " PUs\n"
            << "OpenMP-equiv = fork-join pool, unbound; ORWL NoBind = ORWL "
               "runtime, no placement;\nORWL Bind = ORWL runtime + "
               "Algorithm 1 (TreeMatch placement)\n\n";

  Table table({"tasks", "ops(threads)", "OpenMP-equiv [s]",
               "ORWL NoBind [s]", "ORWL Bind [s]", "Bind vs OpenMP",
               "Bind vs NoBind"});

  for (int tasks : {1, 2, 4, 6, 8, 12, 16, 24}) {
    if (tasks > 2 * host_pus) break;
    const auto [bx, by] = comm::block_grid(tasks);
    if (n % bx != 0 || n % by != 0) continue;
    lk23::Spec spec;
    spec.n = n;
    spec.iterations = iters;
    spec.bx = bx;
    spec.by = by;

    const auto fj = lk23::run_forkjoin(spec, tasks);

    RuntimeBackend nobind_be;
    const RunReport nobind =
        lk23::run_lk23_program(spec, place::Policy::None, nobind_be);

    RuntimeBackend bind_be;
    lk23::ProgramDef def;
    const RunReport bind =
        lk23::run_lk23_program(spec, place::Policy::TreeMatch, bind_be, &def);

    table.add_row({std::to_string(tasks), std::to_string(def.num_tasks),
                   fmt(fj.seconds, 3), fmt(nobind.seconds, 3),
                   fmt(bind.seconds, 3), fmt(fj.seconds / bind.seconds, 2),
                   fmt(nobind.seconds / bind.seconds, 2)});
  }
  table.print(std::cout);
  std::cout << "\nNote: on a single-package host the paper's cross-socket "
               "effects cannot appear;\nsee fig1_livermore_sim for the "
               "192-core reproduction.\n";
  return 0;
}
