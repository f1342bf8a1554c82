#pragma once
// Analytic per-iteration simulator of a task-parallel program on a NUMA
// machine. Given a topology, a cost model, a workload (threads, exchange
// edges, synchronization style) and a placement, it charges:
//
//   * compute        — flops / compute_rate per thread,
//   * memory         — each thread streams its working set from the PU
//                      where its data lives (first touch); remote streams
//                      pay the dca-level bandwidth, and every memory
//                      domain serializes all bytes it serves,
//   * communication  — per exchange edge, dca-level latency + bytes/bw,
//   * locks/sync     — per-acquire grant cost (ORWL) or a log2(P) barrier
//                      (fork-join),
//   * oversubscription — threads sharing a PU serialize.
//
// Placement can be Fixed (bound threads) or Unbound: unbound threads are
// re-placed every iteration by sampling random PUs (balls-in-bins), with a
// stickiness probability modelling the OS scheduler's partial affinity.
// Iteration time = max over PUs of the serialized per-PU work, bounded
// below by the busiest memory domain, plus the sync term.

#include <cstdint>
#include <vector>

#include "sim/cost_model.h"
#include "topo/topology.h"

namespace orwl::sim {

/// One simulated thread (an ORWL operation or a fork-join worker).
struct SimThread {
  double flops = 0.0;        ///< useful work per iteration
  double mem_bytes = 0.0;    ///< working set streamed per iteration
  int acquires = 0;          ///< ORWL lock acquisitions per iteration
};

/// A per-iteration pairwise exchange.
struct Edge {
  int a = 0;
  int b = 0;
  double bytes = 0.0;
};

enum class SyncModel {
  OrwlEvents,      ///< decentralized; costs are per-acquire only
  ForkJoinBarrier  ///< global barrier per iteration
};

struct Workload {
  std::vector<SimThread> threads;
  std::vector<Edge> edges;
  SyncModel sync = SyncModel::OrwlEvents;
  int iterations = 1;
  /// Waiters spin (spin / spin_then_park) instead of blocking:
  /// grant delivery skips the futex park/wake pair, so per-grant cost is
  /// discounted by LinkCost::park_latency + wake_latency (floored at a
  /// quarter of grant_overhead). False = blocking waits, charged the full
  /// grant_overhead exactly as before this knob existed.
  bool spin_waits = false;
};

/// Where threads and their data live.
struct Placement {
  /// Fixed PU per thread (logical index); entry -1 = unbound (the thread is
  /// re-placed randomly every iteration).
  std::vector<int> compute_pu;
  /// Control-thread PU per thread; -1 = unmanaged (pays the unmanaged grant
  /// penalty).
  std::vector<int> control_pu;
  /// PU whose memory domain holds the thread's data (first touch); -1 =
  /// everything on PU 0's domain (serial initialization — the naive OpenMP
  /// first-touch pattern).
  std::vector<int> data_home_pu;
  /// Per thread: nonzero = its working set is interleaved across all
  /// memory domains (memory policy numa_interleave) — streams run at
  /// LinkCost::interleave_bandwidth and the bytes spread evenly over the
  /// domains instead of landing on one home. Empty = nobody interleaved.
  std::vector<char> data_interleaved;
  /// Probability an unbound thread keeps last iteration's PU.
  double stickiness = 0.5;
  /// How an unbound thread picks a PU when it moves: 1 = uniformly random,
  /// 2 = power-of-two-choices on estimated PU load (models the OS
  /// scheduler's partial load balancing).
  int choices = 2;
};

struct Report {
  double total_seconds = 0.0;
  // Per-component integrals over the run (max-composed per iteration, so
  // they do not sum to total_seconds; they show what dominated).
  double compute_seconds = 0.0;
  double memory_seconds = 0.0;
  double comm_seconds = 0.0;
  double sync_seconds = 0.0;
  double lock_seconds = 0.0;
  /// Maximum number of threads that shared one PU in any iteration.
  int max_pu_load = 0;
};

/// Run the model. Deterministic in `seed` (used only for unbound threads).
Report simulate(const topo::Topology& topo, const LinkCost& cost,
                const Workload& load, const Placement& placement,
                std::uint64_t seed = 1);

/// Logical index of the memory domain serving a PU — the first package /
/// NUMA level of the tree (the whole machine when there is none). The
/// granularity at which simulate() serializes domain traffic and at which
/// the numa_local policy considers pages to have physically moved.
int memory_domain_of(const topo::Topology& topo, int pu);

}  // namespace orwl::sim
