// Property-based suites for Algorithm 1: over random matrices and a family
// of topologies, the mapping must always be a valid assignment and must
// never lose to random placement on locality metrics (on average it must
// win clearly).

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "comm/metrics.h"
#include "comm/patterns.h"
#include "support/rng.h"
#include "treematch/treematch.h"

namespace orwl::treematch {
namespace {

Options no_control() {
  Options o;
  o.manage_control_threads = false;
  return o;
}

comm::Mapping random_mapping(int threads, int npus, std::uint64_t seed) {
  std::vector<int> perm(static_cast<std::size_t>(npus));
  std::iota(perm.begin(), perm.end(), 0);
  orwl::Xoshiro256 rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1],
              perm[static_cast<std::size_t>(rng.below(i))]);
  comm::Mapping map(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t)
    map[static_cast<std::size_t>(t)] = perm[static_cast<std::size_t>(t % npus)];
  return map;
}

// (topology spec, thread count, seed)
using Param = std::tuple<const char*, int, int>;

class MappingProperty : public ::testing::TestWithParam<Param> {};

TEST_P(MappingProperty, ValidAndNoWorseThanAverageRandom) {
  const auto [spec, threads, seed] = GetParam();
  const auto topo = topo::Topology::synthetic(spec);
  const auto m = comm::random_matrix(threads, 0.4, 100.0,
                                     static_cast<std::uint64_t>(seed));
  const Result r = map_threads(topo, m, no_control());

  // Validity: every thread mapped, never more than threads_per_leaf per PU.
  comm::validate_mapping(topo, r.compute_pu, r.threads_per_leaf);
  for (int pu : r.compute_pu) EXPECT_GE(pu, 0);

  // Locality: beat the average of random placements. (A single random
  // draw could in principle win; the average of 20 cannot, except for
  // degenerate matrices, which density 0.4 avoids at these sizes.)
  const double tm_cost = comm::hop_bytes(topo, m, r.compute_pu);
  double random_sum = 0.0;
  const int kDraws = 20;
  for (int d = 0; d < kDraws; ++d)
    random_sum += comm::hop_bytes(
        topo, m,
        random_mapping(threads, topo.num_pus(),
                       static_cast<std::uint64_t>(seed * 100 + d)));
  EXPECT_LE(tm_cost, random_sum / kDraws * 1.0001)
      << "TreeMatch lost to average random placement";
}

INSTANTIATE_TEST_SUITE_P(
    TopologiesAndSizes, MappingProperty,
    ::testing::Values(
        Param{"pack:2 core:4 pu:1", 8, 1}, Param{"pack:2 core:4 pu:1", 8, 2},
        Param{"pack:4 core:4 pu:1", 16, 3},
        Param{"pack:4 core:4 pu:1", 12, 4},
        Param{"pack:2 core:2 pu:2", 8, 5}, Param{"pack:8 core:4 pu:1", 32, 6},
        Param{"pack:2 numa:2 core:4 pu:1", 16, 7},
        Param{"pack:4 core:8 pu:1", 32, 8},
        Param{"pack:4 core:8 pu:1", 24, 9},
        Param{"pu:16", 16, 10}));

class StencilProperty : public ::testing::TestWithParam<int> {};

// On stencil patterns (the paper's workload) TreeMatch must keep a clear
// majority of the traffic inside packages on a multi-package machine.
TEST_P(StencilProperty, KeepsTrafficInsidePackages) {
  const int blocks = GetParam();
  const auto topo = topo::Topology::synthetic("pack:4 core:4 pu:1");
  const auto m = comm::stencil_matrix({blocks, blocks, 128, 128});
  const Result r = map_threads(topo, m, no_control());
  comm::validate_mapping(topo, r.compute_pu, r.threads_per_leaf);

  const double tm_local = comm::locality_fraction(topo, m, r.compute_pu, 1);
  // Row-major sequential placement is the natural naive baseline.
  comm::Mapping naive(static_cast<std::size_t>(blocks * blocks));
  for (int t = 0; t < blocks * blocks; ++t)
    naive[static_cast<std::size_t>(t)] = t % topo.num_pus();
  const double naive_local = comm::locality_fraction(topo, m, naive, 1);
  EXPECT_GE(tm_local, naive_local - 1e-9);
  EXPECT_GE(tm_local, 0.5) << "stencil should be mostly package-local";
}

INSTANTIATE_TEST_SUITE_P(BlockGrids, StencilProperty,
                         ::testing::Values(2, 4, 8));

// Oversubscribed property: threads > PUs must still produce a balanced
// assignment (each PU gets at most ceil(threads / PUs)).
class OversubProperty : public ::testing::TestWithParam<int> {};

TEST_P(OversubProperty, BalancedSharing) {
  const int factor = GetParam();
  const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:1");
  const int threads = topo.num_pus() * factor;
  const auto m = comm::random_matrix(threads, 0.3, 10.0,
                                     static_cast<std::uint64_t>(factor));
  const Result r = map_threads(topo, m, no_control());
  EXPECT_EQ(r.oversubscribed, factor > 1);
  EXPECT_EQ(r.threads_per_leaf, factor);
  comm::validate_mapping(topo, r.compute_pu, factor);
}

INSTANTIATE_TEST_SUITE_P(Factors, OversubProperty,
                         ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace orwl::treematch
