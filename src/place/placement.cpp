#include "place/placement.h"

#include <algorithm>
#include <cctype>
#include <numeric>

#include "support/assert.h"
#include "support/rng.h"

namespace orwl::place {

const char* to_string(Policy p) {
  switch (p) {
    case Policy::None: return "none";
    case Policy::Compact: return "compact";
    case Policy::Scatter: return "scatter";
    case Policy::Random: return "random";
    case Policy::TreeMatch: return "treematch";
  }
  return "?";
}

Policy parse_policy(const std::string& name) {
  std::string s;
  s.reserve(name.size());
  for (const char c : name)
    s += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (s == "none" || s == "nobind") return Policy::None;
  if (s == "compact") return Policy::Compact;
  if (s == "scatter") return Policy::Scatter;
  if (s == "random") return Policy::Random;
  if (s == "treematch" || s == "bind") return Policy::TreeMatch;
  ORWL_CHECK_MSG(false, "unknown placement policy '"
                            << name
                            << "'; known: none|compact|scatter|random|"
                               "treematch (aliases: nobind, bind)");
  return Policy::None;  // unreachable
}

std::vector<int> scatter_order(const topo::Topology& topo) {
  const int n = topo.num_pus();
  std::vector<int> order;
  order.reserve(static_cast<std::size_t>(n));
  if (!topo.is_balanced()) {
    // Irregular tree: fall back to logical order.
    order.resize(static_cast<std::size_t>(n));
    std::iota(order.begin(), order.end(), 0);
    return order;
  }
  const std::vector<int> arities = topo.arities();
  // Logical PU index is a mixed-radix number with digits (top..leaf).
  // Reversing the digits makes the *top* level vary fastest: consecutive
  // scatter slots land on different packages.
  for (int i = 0; i < n; ++i) {
    int rest = i;
    std::vector<int> digits(arities.size());
    for (std::size_t d = arities.size(); d-- > 0;) {
      digits[d] = rest % arities[d];
      rest /= arities[d];
    }
    int idx = 0;
    for (std::size_t d = 0; d < arities.size(); ++d) {
      // Reversed digit order: leaf digit becomes most significant.
      idx = idx * arities[arities.size() - 1 - d] +
            digits[arities.size() - 1 - d];
    }
    order.push_back(idx);
  }
  // `order[i]` now is the scatter rank of PU i; invert to get the visit
  // order (rank -> PU).
  std::vector<int> visit(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) visit[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;
  return visit;
}

Plan compute_plan(Policy policy, const topo::Topology& topo,
                  const comm::CommMatrix& m, const treematch::Options& tm_opts,
                  std::uint64_t seed) {
  const int p = m.order();
  ORWL_CHECK_MSG(p >= 1, "plan needs at least one task");
  const int npus = topo.num_pus();

  Plan plan;
  plan.compute_pu.assign(static_cast<std::size_t>(p), -1);
  plan.control_pu.assign(static_cast<std::size_t>(p), -1);

  switch (policy) {
    case Policy::None:
      break;
    case Policy::Compact:
      for (int t = 0; t < p; ++t)
        plan.compute_pu[static_cast<std::size_t>(t)] = t % npus;
      break;
    case Policy::Scatter: {
      const std::vector<int> visit = scatter_order(topo);
      for (int t = 0; t < p; ++t)
        plan.compute_pu[static_cast<std::size_t>(t)] =
            visit[static_cast<std::size_t>(t % npus)];
      break;
    }
    case Policy::Random: {
      std::vector<int> perm(static_cast<std::size_t>(npus));
      std::iota(perm.begin(), perm.end(), 0);
      Xoshiro256 rng(seed);
      for (std::size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[static_cast<std::size_t>(
                                   rng.below(static_cast<std::uint64_t>(i)))]);
      for (int t = 0; t < p; ++t)
        plan.compute_pu[static_cast<std::size_t>(t)] =
            perm[static_cast<std::size_t>(t % npus)];
      break;
    }
    case Policy::TreeMatch: {
      plan.treematch = treematch::map_threads(topo, m, tm_opts);
      plan.compute_pu = plan.treematch.compute_pu;
      plan.control_pu = plan.treematch.control_pu;
      break;
    }
  }
  return plan;
}

void apply_plan(const Plan& plan, const topo::Topology& topo,
                Runtime& runtime) {
  ORWL_CHECK_MSG(static_cast<int>(plan.compute_pu.size()) >=
                     runtime.num_tasks(),
                 "plan covers fewer tasks than the runtime has");
  const auto pus = topo.pus();
  for (TaskId t = 0; t < runtime.num_tasks(); ++t) {
    const int cpu = plan.compute_pu[static_cast<std::size_t>(t)];
    if (cpu >= 0)
      runtime.set_compute_binding(
          t, pus[static_cast<std::size_t>(cpu)]->cpuset);
  }
  // Location pages follow the plan too (RuntimeOptions::memory): under
  // numa_local each location lands on its planned writer's node, under
  // numa_interleave it is spread across all nodes. No-op for heap.
  runtime.place_location_memory(plan.compute_pu, topo);
}

}  // namespace orwl::place
