#include "sim/simulator.h"

#include <algorithm>
#include <cmath>

#include "support/assert.h"
#include "support/cast.h"
#include "support/rng.h"

namespace orwl::sim {

namespace {

// Memory domain of a PU: the package (or the machine when the tree has no
// package level). Identified by the ancestor object at the domain depth.
int domain_depth(const topo::Topology& topo) {
  for (int d = 0; d < topo.depth(); ++d) {
    for (const topo::Object* obj : topo.level(d)) {
      if (obj->type == topo::ObjType::Package ||
          obj->type == topo::ObjType::NUMANode)
        return d;
    }
  }
  return 0;  // single domain
}

int domain_of(const topo::Topology& topo, int pu, int dom_depth) {
  const topo::Object* obj = topo.pus()[static_cast<std::size_t>(pu)];
  while (obj->depth > dom_depth) obj = obj->parent;
  return obj->logical_index;
}

}  // namespace

int memory_domain_of(const topo::Topology& topo, int pu) {
  ORWL_CHECK_MSG(pu >= 0 && pu < topo.num_pus(), "bad pu " << pu);
  return domain_of(topo, pu, domain_depth(topo));
}

Report simulate(const topo::Topology& topo, const LinkCost& cost,
                const Workload& load, const Placement& placement,
                std::uint64_t seed) {
  cost.check(topo);
  const int n = static_cast<int>(load.threads.size());
  ORWL_CHECK_MSG(n >= 1, "workload has no threads");
  ORWL_CHECK_MSG(ssize_of(placement.compute_pu) == n,
                 "placement.compute_pu size mismatch");
  ORWL_CHECK_MSG(ssize_of(placement.control_pu) == n,
                 "placement.control_pu size mismatch");
  ORWL_CHECK_MSG(ssize_of(placement.data_home_pu) == n,
                 "placement.data_home_pu size mismatch");
  ORWL_CHECK_MSG(placement.data_interleaved.empty() ||
                     ssize_of(placement.data_interleaved) == n,
                 "placement.data_interleaved size mismatch");
  ORWL_CHECK_MSG(load.iterations >= 1, "need at least one iteration");
  const int npus = topo.num_pus();
  for (const Edge& e : load.edges)
    ORWL_CHECK_MSG(e.a >= 0 && e.a < n && e.b >= 0 && e.b < n && e.a != e.b,
                   "bad edge (" << e.a << ',' << e.b << ')');

  const auto pus = topo.pus();
  const int dom_depth = domain_depth(topo);
  const int ndomains =
      static_cast<int>(topo.level(dom_depth).size());

  ORWL_CHECK_MSG(placement.choices == 1 || placement.choices == 2,
                 "placement.choices must be 1 or 2");
  Xoshiro256 rng(seed);

  // Estimated per-thread weight for the scheduler model (what the OS sees
  // as runnable load): compute plus an optimistic local memory stream.
  std::vector<double> weight(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    const SimThread& th = load.threads[static_cast<std::size_t>(t)];
    weight[static_cast<std::size_t>(t)] =
        th.flops / cost.compute_rate + th.mem_bytes / cost.bandwidth.back();
  }

  std::vector<double> est_load(static_cast<std::size_t>(npus), 0.0);
  // Fixed threads contribute to the load the scheduler balances around.
  for (int t = 0; t < n; ++t) {
    const int fixed = placement.compute_pu[static_cast<std::size_t>(t)];
    if (fixed >= 0)
      est_load[static_cast<std::size_t>(fixed)] +=
          weight[static_cast<std::size_t>(t)];
  }

  auto pick_pu = [&]() {
    const int a = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(npus)));
    if (placement.choices == 1) return a;
    const int b = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(npus)));
    return est_load[static_cast<std::size_t>(a)] <=
                   est_load[static_cast<std::size_t>(b)]
               ? a
               : b;
  };

  // Current PU of each thread; unbound threads start scheduler-placed.
  std::vector<int> at(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    const int fixed = placement.compute_pu[static_cast<std::size_t>(t)];
    if (fixed >= 0) {
      at[static_cast<std::size_t>(t)] = fixed;
    } else {
      const int pu = pick_pu();
      at[static_cast<std::size_t>(t)] = pu;
      est_load[static_cast<std::size_t>(pu)] +=
          weight[static_cast<std::size_t>(t)];
    }
  }

  // Data home PU (fixed for the whole run: first touch).
  std::vector<int> home(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) {
    const int h = placement.data_home_pu[static_cast<std::size_t>(t)];
    home[static_cast<std::size_t>(t)] = h >= 0 ? h : 0;
  }

  Report rep;
  std::vector<double> pu_time(static_cast<std::size_t>(npus));
  std::vector<int> pu_load(static_cast<std::size_t>(npus));
  std::vector<double> domain_bytes(static_cast<std::size_t>(ndomains));

  for (int it = 0; it < load.iterations; ++it) {
    // 1. Re-place unbound threads (stickiness + scheduler choice model).
    for (int t = 0; t < n; ++t) {
      if (placement.compute_pu[static_cast<std::size_t>(t)] >= 0) continue;
      if (rng.uniform() >= placement.stickiness) {
        est_load[static_cast<std::size_t>(
            at[static_cast<std::size_t>(t)])] -=
            weight[static_cast<std::size_t>(t)];
        const int pu = pick_pu();
        at[static_cast<std::size_t>(t)] = pu;
        est_load[static_cast<std::size_t>(pu)] +=
            weight[static_cast<std::size_t>(t)];
      }
    }

    std::fill(pu_time.begin(), pu_time.end(), 0.0);
    std::fill(pu_load.begin(), pu_load.end(), 0);
    std::fill(domain_bytes.begin(), domain_bytes.end(), 0.0);

    double it_compute = 0.0;
    double it_memory = 0.0;
    double it_comm = 0.0;
    double it_lock = 0.0;

    // 2. Per-thread costs, serialized per PU.
    for (int t = 0; t < n; ++t) {
      const SimThread& th = load.threads[static_cast<std::size_t>(t)];
      const int pu = at[static_cast<std::size_t>(t)];
      const topo::Object& pu_obj = *pus[static_cast<std::size_t>(pu)];

      const double compute = th.flops / cost.compute_rate;

      double memory = 0.0;
      if (!placement.data_interleaved.empty() &&
          placement.data_interleaved[static_cast<std::size_t>(t)]) {
        // Interleaved pages: the stream runs at the blended bandwidth and
        // its bytes spread evenly over every domain controller.
        memory = th.mem_bytes / cost.interleave_bandwidth;
        const double share = th.mem_bytes / ndomains;
        for (int d = 0; d < ndomains; ++d)
          domain_bytes[static_cast<std::size_t>(d)] += share;
      } else {
        const int hpu = home[static_cast<std::size_t>(t)];
        const int mem_dca = topo.common_ancestor_depth(
            pu_obj, *pus[static_cast<std::size_t>(hpu)]);
        memory =
            th.mem_bytes / cost.bandwidth[static_cast<std::size_t>(mem_dca)];
        domain_bytes[static_cast<std::size_t>(
            domain_of(topo, hpu, dom_depth))] += th.mem_bytes;
      }

      double lock = 0.0;
      if (th.acquires > 0) {
        const int cpu = placement.control_pu[static_cast<std::size_t>(t)];
        double per_grant = cost.grant_overhead;
        if (load.spin_waits) {
          // Spinning waiters consume the grant without the futex
          // park/wake pair; the floor keeps announcement + queue work
          // charged even when the measured pair exceeds the overhead.
          per_grant = std::max(
              cost.grant_overhead - cost.park_latency - cost.wake_latency,
              0.25 * cost.grant_overhead);
        }
        if (cpu < 0) {
          per_grant += cost.unmanaged_grant_penalty;
        } else {
          const int dca = topo.common_ancestor_depth(
              pu_obj, *pus[static_cast<std::size_t>(cpu)]);
          per_grant += cost.latency[static_cast<std::size_t>(dca)];
        }
        lock = th.acquires * per_grant;
      }

      pu_time[static_cast<std::size_t>(pu)] += compute + memory + lock;
      pu_load[static_cast<std::size_t>(pu)] += 1;
      it_compute = std::max(it_compute, compute);
      it_memory = std::max(it_memory, memory);
      it_lock = std::max(it_lock, lock);
    }

    // 3. Exchange edges: both endpoints pay latency + bytes/bw at the dca
    //    level of their *current* PUs.
    for (const Edge& e : load.edges) {
      const int pa = at[static_cast<std::size_t>(e.a)];
      const int pb = at[static_cast<std::size_t>(e.b)];
      const int dca = topo.common_ancestor_depth(
          *pus[static_cast<std::size_t>(pa)],
          *pus[static_cast<std::size_t>(pb)]);
      const double c = cost.latency[static_cast<std::size_t>(dca)] +
                       e.bytes / cost.bandwidth[static_cast<std::size_t>(dca)];
      pu_time[static_cast<std::size_t>(pa)] += c;
      pu_time[static_cast<std::size_t>(pb)] += c;
      it_comm = std::max(it_comm, c);
    }

    // 4. Iteration time: busiest PU, bounded below by the busiest memory
    //    domain (its controller serializes all bytes it serves), plus the
    //    global synchronization term.
    double busiest_pu = 0.0;
    for (double t : pu_time) busiest_pu = std::max(busiest_pu, t);
    double busiest_domain = 0.0;
    for (double b : domain_bytes)
      busiest_domain = std::max(busiest_domain, b / cost.domain_bandwidth);

    double sync = 0.0;
    if (load.sync == SyncModel::ForkJoinBarrier) {
      const double hops = std::ceil(std::log2(std::max(2, n)));
      sync = 2.0 * hops * cost.barrier_hop;
    }

    rep.total_seconds += std::max(busiest_pu, busiest_domain) + sync;
    rep.compute_seconds += it_compute;
    rep.memory_seconds += std::max(it_memory, busiest_domain);
    rep.comm_seconds += it_comm;
    rep.sync_seconds += sync;
    rep.lock_seconds += it_lock;
    for (int l : pu_load) rep.max_pu_load = std::max(rep.max_pu_load, l);
  }
  return rep;
}

}  // namespace orwl::sim
