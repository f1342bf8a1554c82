#include "sim/cost_model.h"

#include "support/assert.h"
#include "support/cast.h"

namespace orwl::sim {

void LinkCost::check(const topo::Topology& topo) const {
  ORWL_CHECK_MSG(ssize_of(latency) == topo.depth(),
                 "latency ladder has " << latency.size() << " entries, "
                                       << "topology depth is "
                                       << topo.depth());
  ORWL_CHECK_MSG(ssize_of(bandwidth) == topo.depth(),
                 "bandwidth ladder size mismatch");
  for (double l : latency) ORWL_CHECK_MSG(l >= 0.0, "negative latency");
  for (double b : bandwidth) ORWL_CHECK_MSG(b > 0.0, "non-positive bandwidth");
  ORWL_CHECK(domain_bandwidth > 0.0 && compute_rate > 0.0);
  ORWL_CHECK_MSG(grant_overhead >= 0.0, "negative grant overhead");
  ORWL_CHECK_MSG(migration_cost >= 0.0, "negative migration cost");
  ORWL_CHECK_MSG(interleave_bandwidth > 0.0,
                 "non-positive interleave bandwidth");
  ORWL_CHECK_MSG(page_move_bandwidth > 0.0,
                 "non-positive page-move bandwidth");
}

LinkCost LinkCost::defaults_for(const topo::Topology& topo) {
  LinkCost c;
  const int depth = topo.depth();
  c.latency.resize(static_cast<std::size_t>(depth));
  c.bandwidth.resize(static_cast<std::size_t>(depth));
  for (int d = 0; d < depth; ++d) {
    // Distance of the dca from the leaves: 0 = same PU, 1 = same core, ...
    const int up = depth - 1 - d;
    double lat = 0.0;
    double bw = 0.0;
    switch (up) {
      case 0: lat = 2e-8; bw = 60e9; break;   // same PU (register/L1)
      case 1: lat = 5e-8; bw = 40e9; break;   // same core / L2
      case 2: lat = 2e-7; bw = 20e9; break;   // same package / L3
      default: lat = 1e-6; bw = 6e9; break;   // cross package / interconnect
    }
    c.latency[static_cast<std::size_t>(d)] = lat;
    c.bandwidth[static_cast<std::size_t>(d)] = bw;
  }
  return c;
}

}  // namespace orwl::sim
