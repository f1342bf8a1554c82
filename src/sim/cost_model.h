#pragma once
// LinkCost: the analytic machine model used by the simulator. All data
// movement between two PUs is charged according to the depth of their
// deepest common ancestor (dca) in the topology tree: crossing a package
// boundary is slower than staying inside a shared cache, which is slower
// than staying on one core.
//
// This replaces the paper's physical 24-socket SMP (unavailable here); the
// defaults are calibrated so the simulated Figure 1 lands near the paper's
// headline numbers (ORWL Bind ~11 s at 192 cores; see docs/architecture.md).

#include <vector>

#include "topo/topology.h"

namespace orwl::sim {

struct LinkCost {
  /// Per-dca-depth one-way latency in seconds (size = topo.depth()).
  /// Index 0 = the root (cross-package), back() = same PU.
  std::vector<double> latency;
  /// Per-dca-depth per-flow bandwidth in bytes/s.
  std::vector<double> bandwidth;

  /// Aggregate bandwidth of one memory domain (NUMA node / package).
  /// Requests from many threads to one domain serialize against this —
  /// the first-touch hotspot that ruins the naive OpenMP version.
  double domain_bandwidth = 24e9;

  /// Local-vs-remote memory model for the location-memory policies
  /// (mem/policy.h). Effective per-thread stream bandwidth when the
  /// thread's pages are interleaved across all domains (numa_interleave):
  /// between the local-stream and cross-package figures, since 1/N of the
  /// lines are local and the rest pay the interconnect.
  double interleave_bandwidth = 12e9;

  /// Bandwidth at which the runtime migrates location pages to a new node
  /// at a re-placement boundary (mbind MPOL_MF_MOVE). Charged once per
  /// moved byte under memory policy numa_local; heap never moves pages
  /// (and keeps paying remote streams instead).
  double page_move_bandwidth = 4e9;

  /// Effective per-core compute throughput (flops/s) for the memory-bound
  /// stencil kernel. An *effective* number including local-memory stalls,
  /// calibrated so ORWL Bind lands near the paper's ~11 s at 192 cores.
  double compute_rate = 130e6;

  /// Cost of granting one lock request through a well-placed control path.
  double grant_overhead = 2e-6;
  /// Extra per-grant cost when the control thread is unmanaged (OS-placed):
  /// wakeup migration and queueing delay.
  double unmanaged_grant_penalty = 20e-6;

  /// Futex park / wake halves of a blocking grant delivery, measured by
  /// bench/micro_orwl_overhead's park_wake_calibration case (the delta
  /// between a blocking and a spinning handoff of one atomic word).
  /// Spin-mode workloads (Workload::spin_waits) dodge this pair on the
  /// grant path, so the simulator discounts their per-grant cost by it —
  /// floored at grant_overhead/4, since announcement and queue work
  /// remain. Blocking workloads are charged grant_overhead unchanged,
  /// keeping recorded blocking-mode results bit-identical. Defaults split
  /// the calibration's measured ~0.6 us blocking-vs-spinning handoff
  /// delta evenly across the two halves.
  double park_latency = 0.3e-6;
  double wake_latency = 0.3e-6;

  /// Per-hop cost of a fork-join barrier (the barrier costs
  /// barrier_hop * ceil(log2(P)) * 2 per iteration).
  double barrier_hop = 3e-6;

  /// One-time cost of migrating one thread to a new PU during online
  /// re-placement (epoch boundary): the setaffinity call, the scheduler
  /// move, and the warm-cache refill of the thread's hot state. Charged
  /// per task whose compute PU changed; the colder data penalty (first
  /// touch does not move) is charged naturally through the remote-memory
  /// streams of the following epochs.
  double migration_cost = 20e-6;

  /// Validate vector sizes against a topology. Throws ContractError.
  void check(const topo::Topology& topo) const;

  /// Calibrated defaults for any topology: a latency/bandwidth ladder by
  /// distance-from-leaf (same PU, same core, same package, cross package).
  static LinkCost defaults_for(const topo::Topology& topo);
};

}  // namespace orwl::sim
