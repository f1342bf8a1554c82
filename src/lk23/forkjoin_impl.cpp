#include "lk23/forkjoin_impl.h"

#include "baselines/fork_join.h"
#include "support/assert.h"
#include "support/time.h"

namespace orwl::lk23 {

ForkJoinRunResult run_forkjoin(const Spec& spec, int num_threads,
                               const topo::Topology* topo) {
  ORWL_CHECK_MSG(spec.n >= 2 && spec.bx >= 1 && spec.by >= 1 &&
                     spec.n % spec.bx == 0 && spec.n % spec.by == 0,
                 "block grid must divide the matrix");
  ORWL_CHECK_MSG(num_threads >= 1, "need at least one thread");

  const long n = spec.n;
  const comm::BlockGrid g = spec.grid();
  const int B = g.blocks();

  std::vector<std::optional<topo::Bitmap>> cpusets;
  if (topo != nullptr) {
    const auto pus = topo->pus();
    cpusets.resize(static_cast<std::size_t>(num_threads));
    for (int t = 0; t < num_threads; ++t)
      cpusets[static_cast<std::size_t>(t)] =
          pus[static_cast<std::size_t>(t % topo->num_pus())]->cpuset;
  }
  baselines::ForkJoinPool pool(num_threads, std::move(cpusets));

  // Serial initialization — the naive first-touch pattern of the paper's
  // OpenMP baseline.
  std::vector<double> za(static_cast<std::size_t>(n * n));
  BlockView whole{za.data(), n, n, n, 0, 0, n};
  init_block(whole);

  std::vector<Halo> halos(static_cast<std::size_t>(B));
  for (auto& h : halos)
    for (int d = 0; d < comm::kAllDirs; ++d)
      h[static_cast<std::size_t>(d)].resize(
          static_cast<std::size_t>(g.face_elems(d)));

  // Block b's (0, 0) inside the global field.
  auto origin = [&](int b) { return za.data() + g.row0(b) * n + g.col0(b); };

  WallTimer timer;
  for (int it = 0; it < spec.iterations; ++it) {
    // Phase 1: snapshot every block's frontier (previous-iteration values):
    // in each direction, the neighbour's face pointing back at the block.
    pool.parallel_for_each(0, B, [&](long b) {
      Halo& h = halos[static_cast<std::size_t>(b)];
      for (int d = 0; d < comm::kAllDirs; ++d) {
        const int nb = g.neighbour(static_cast<int>(b), d);
        if (nb >= 0)
          g.copy_face(origin(nb), n, comm::opposite(d),
                      h[static_cast<std::size_t>(d)].data());
      }
    });
    // Phase 2: sweep all blocks in place.
    pool.parallel_for_each(0, B, [&](long b) {
      const int blk = static_cast<int>(b);
      sweep_block({origin(blk), n, g.brows, g.bcols, g.row0(blk),
                   g.col0(blk), n},
                  halos[static_cast<std::size_t>(b)]);
    });
  }

  ForkJoinRunResult res;
  res.seconds = timer.seconds();
  res.num_threads = num_threads;
  res.za = std::move(za);
  return res;
}

}  // namespace orwl::lk23
