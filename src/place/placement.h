#pragma once
// Placement policies. TreeMatch is the paper's contribution; the others are
// the standard baselines used in the ablation benches:
//   None     — leave everything to the OS scheduler (ORWL NoBind),
//   Compact  — fill PUs in logical order (hwloc-style "compact"),
//   Scatter  — spread across the highest topology level first,
//   Random   — seeded random permutation of PUs.

#include <cstdint>
#include <string>

#include "comm/comm_matrix.h"
#include "comm/metrics.h"
#include "orwl/runtime.h"
#include "topo/topology.h"
#include "treematch/treematch.h"

namespace orwl::place {

enum class Policy { None, Compact, Scatter, Random, TreeMatch };

const char* to_string(Policy p);
Policy parse_policy(const std::string& name);

/// A computed placement: logical PU index per task for the compute thread
/// and (optionally, TreeMatch only) the control thread; -1 = unbound.
/// control_pu models the paper's runtime, whose control threads Algorithm
/// 1 line 1 places: SimBackend charges it and orwl_map prints it, but the
/// Runtime has no control thread to bind.
struct Plan {
  comm::Mapping compute_pu;
  comm::Mapping control_pu;
  /// Populated for Policy::TreeMatch.
  treematch::Result treematch;
};

/// Compute a plan for `num_tasks` tasks. The communication matrix is only
/// consulted by TreeMatch; pass the runtime's static or measured matrix.
/// Tasks beyond the PU count wrap around (oversubscription).
Plan compute_plan(Policy policy, const topo::Topology& topo,
                  const comm::CommMatrix& m,
                  const treematch::Options& tm_opts = {},
                  std::uint64_t seed = 42);

/// Bind the runtime's compute threads to the plan's PUs (cpusets of the
/// mapped PUs) and place location memory per the runtime's memory policy
/// (Runtime::place_location_memory: numa_local pages go to the planned
/// writers' nodes). Tasks with -1 entries are left unbound.
void apply_plan(const Plan& plan, const topo::Topology& topo,
                Runtime& runtime);

/// The PU visit order used by Policy::Scatter: mixed-radix digit reversal
/// of the logical PU index (top topology level varies fastest). Exposed for
/// tests.
std::vector<int> scatter_order(const topo::Topology& topo);

}  // namespace orwl::place
