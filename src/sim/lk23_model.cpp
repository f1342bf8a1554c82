#include "sim/lk23_model.h"

#include "comm/comm_matrix.h"
#include "comm/patterns.h"
#include "support/assert.h"
#include "support/rng.h"

namespace orwl::sim {

const char* to_string(Lk23Impl impl) {
  switch (impl) {
    case Lk23Impl::OpenMP: return "OpenMP";
    case Lk23Impl::OrwlNoBind: return "ORWL NoBind";
    case Lk23Impl::OrwlBind: return "ORWL Bind";
  }
  return "?";
}

namespace {

// Shared geometry of the ORWL decomposition.
struct Geometry {
  int bx, by;
  long rows_per_block, cols_per_block;
  double edge_bytes_h;  // horizontal neighbour edge (column) in bytes
  double edge_bytes_v;  // vertical neighbour edge (row) in bytes
  long points_per_block;
};

Geometry make_geometry(const Lk23SimSpec& spec) {
  Geometry g{};
  const auto [bx, by] = comm::block_grid(spec.tasks);
  g.bx = bx;
  g.by = by;
  g.rows_per_block = spec.matrix_n / by;
  g.cols_per_block = spec.matrix_n / bx;
  g.points_per_block = g.rows_per_block * g.cols_per_block;
  g.edge_bytes_h = static_cast<double>(g.rows_per_block) * 8.0;
  g.edge_bytes_v = static_cast<double>(g.cols_per_block) * 8.0;
  return g;
}

// Build the ORWL workload: per block one main thread plus one frontier
// thread per existing neighbour (8-neighbourhood, non-periodic).
// Returns the workload and fills `comm` (order == #threads) with the edge
// bytes, for TreeMatch.
Workload build_orwl_workload(const Lk23SimSpec& spec, const Geometry& g,
                             comm::CommMatrix& comm) {
  const int B = spec.tasks;
  Workload load;
  load.sync = SyncModel::OrwlEvents;
  load.iterations = spec.iterations;

  // First pass: main thread ids are 0..B-1; frontier threads appended.
  // Every block gets exactly 8 frontier operations (paper Sec. III: "a
  // main operation ... and eight sub-operations"); exports without a
  // neighbour (global border) have no consumer.
  struct Fop {
    int block;
    int neighbour_block;  // -1 at the global border
    double bytes;
  };
  std::vector<Fop> fops;
  auto block_id = [&](int x, int y) { return y * g.bx + x; };
  for (int y = 0; y < g.by; ++y) {
    for (int x = 0; x < g.bx; ++x) {
      const int b = block_id(x, y);
      const int dx8[] = {+1, -1, 0, 0, +1, +1, -1, -1};
      const int dy8[] = {0, 0, +1, -1, +1, -1, +1, -1};
      for (int d = 0; d < 8; ++d) {
        const int nx = x + dx8[d];
        const int ny = y + dy8[d];
        const bool exists =
            nx >= 0 && ny >= 0 && nx < g.bx && ny < g.by;
        const bool diagonal = dx8[d] != 0 && dy8[d] != 0;
        const double bytes = diagonal ? 8.0
                             : (dx8[d] != 0 ? g.edge_bytes_h
                                            : g.edge_bytes_v);
        fops.push_back({b, exists ? block_id(nx, ny) : -1, bytes});
      }
    }
  }

  const int nthreads = B + static_cast<int>(fops.size());
  load.threads.resize(static_cast<std::size_t>(nthreads));
  comm = comm::CommMatrix(nthreads);

  const double block_bytes = static_cast<double>(g.points_per_block) * 8.0;
  for (int b = 0; b < B; ++b) {
    SimThread& th = load.threads[static_cast<std::size_t>(b)];
    th.flops = static_cast<double>(g.points_per_block) * spec.flops_per_point;
    th.mem_bytes =
        static_cast<double>(g.points_per_block) * spec.bytes_per_point;
    th.acquires = 1;  // own block write; +1 per neighbour read below
    // All 9 operations of a block share its block location: pairwise
    // affinity of the block size ("cluster threads that share data").
    for (int fa = 0; fa < 8; ++fa) {
      comm.add(b, B + b * 8 + fa, block_bytes);
      for (int fb = fa + 1; fb < 8; ++fb)
        comm.add(B + b * 8 + fa, B + b * 8 + fb, block_bytes);
    }
  }
  for (std::size_t f = 0; f < fops.size(); ++f) {
    const int tid = B + static_cast<int>(f);
    const Fop& fop = fops[f];
    SimThread& th = load.threads[static_cast<std::size_t>(tid)];
    th.flops = fop.bytes;  // copying the frontier is ~1 flop per byte moved
    th.mem_bytes = 2.0 * fop.bytes;
    th.acquires = 2;  // read own block, write own frontier location

    // Frontier thread exchanges with its own main (reads the block) and
    // the neighbour's main (which reads the frontier location). The
    // intra-block affinity (block-location sharing) is already in the
    // matrix; the simulator *edges* carry the bytes that actually move.
    load.edges.push_back({tid, fop.block, fop.bytes});
    if (fop.neighbour_block >= 0) {
      load.edges.push_back({tid, fop.neighbour_block, fop.bytes});
      comm.add(tid, fop.neighbour_block, fop.bytes);
      load.threads[static_cast<std::size_t>(fop.neighbour_block)].acquires +=
          1;
    }
  }
  return load;
}

}  // namespace

Lk23Model build_lk23_model(Lk23Impl impl, const topo::Topology& topo,
                           const Lk23SimSpec& spec) {
  ORWL_CHECK_MSG(spec.matrix_n >= 1 && spec.iterations >= 1,
                 "bad LK23 spec");
  const Geometry g = make_geometry(spec);
  const int npus = topo.num_pus();
  Lk23Model model;

  switch (impl) {
    case Lk23Impl::OpenMP: {
      // Row-strip fork-join: one worker per task, static schedule, global
      // barrier. Serial initialization => all pages on PU 0's domain.
      const int P = spec.tasks;
      model.load.sync = SyncModel::ForkJoinBarrier;
      model.load.iterations = spec.iterations;
      model.load.threads.resize(static_cast<std::size_t>(P));
      const long points_per_worker =
          static_cast<long>(spec.matrix_n) * spec.matrix_n / P;
      for (int t = 0; t < P; ++t) {
        SimThread& th = model.load.threads[static_cast<std::size_t>(t)];
        th.flops = static_cast<double>(points_per_worker) *
                   spec.flops_per_point;
        th.mem_bytes = static_cast<double>(points_per_worker) *
                       spec.bytes_per_point;
      }
      const double row_bytes = static_cast<double>(spec.matrix_n) * 8.0;
      for (int t = 0; t + 1 < P; ++t)
        model.load.edges.push_back({t, t + 1, row_bytes});

      // Workers run compact (one per PU while they fit) — generous to
      // OpenMP; the first-touch hotspot is what kills it.
      model.place.compute_pu.resize(static_cast<std::size_t>(P));
      for (int t = 0; t < P; ++t)
        model.place.compute_pu[static_cast<std::size_t>(t)] = t % npus;
      model.place.control_pu.assign(static_cast<std::size_t>(P), 0);
      model.place.data_home_pu.assign(static_cast<std::size_t>(P), -1);
      model.num_threads = P;
      break;
    }
    case Lk23Impl::OrwlNoBind: {
      comm::CommMatrix comm(1);
      model.load = build_orwl_workload(spec, g, comm);
      const int n = static_cast<int>(model.load.threads.size());
      model.place.compute_pu.assign(static_cast<std::size_t>(n), -1);
      model.place.control_pu.assign(static_cast<std::size_t>(n), -1);
      // First touch happened wherever the unbound thread started.
      Xoshiro256 rng(spec.seed);
      model.place.data_home_pu.resize(static_cast<std::size_t>(n));
      for (int t = 0; t < n; ++t)
        model.place.data_home_pu[static_cast<std::size_t>(t)] =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(npus)));
      model.num_threads = n;
      break;
    }
    case Lk23Impl::OrwlBind: {
      comm::CommMatrix comm(1);
      model.load = build_orwl_workload(spec, g, comm);
      const int n = static_cast<int>(model.load.threads.size());
      model.mapping = treematch::map_threads(topo, comm);
      model.place.compute_pu = model.mapping.compute_pu;
      model.place.control_pu = model.mapping.control_pu;
      // Unmanaged control threads run beside their bound compute thread.
      for (int t = 0; t < n; ++t)
        if (model.place.control_pu[static_cast<std::size_t>(t)] < 0)
          model.place.control_pu[static_cast<std::size_t>(t)] =
              model.place.compute_pu[static_cast<std::size_t>(t)];
      // Bound owners first-touch their own data.
      model.place.data_home_pu = model.place.compute_pu;
      model.num_threads = n;
      break;
    }
  }
  return model;
}

Report simulate_lk23(Lk23Impl impl, const topo::Topology& topo,
                     const LinkCost& cost, const Lk23SimSpec& spec) {
  const Lk23Model model = build_lk23_model(impl, topo, spec);
  return simulate(topo, cost, model.load, model.place, spec.seed);
}

}  // namespace orwl::sim
