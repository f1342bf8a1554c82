// Unit tests for Algorithm 1 (map_threads): mapping validity, locality,
// oversubscription and control-thread strategies.

#include <gtest/gtest.h>

#include "comm/metrics.h"
#include "comm/patterns.h"
#include "support/assert.h"
#include "treematch/treematch.h"

namespace orwl::treematch {
namespace {

Options no_control() {
  Options o;
  o.manage_control_threads = false;
  return o;
}

TEST(MapThreads, FillsEveryThreadOnce) {
  const auto topo = topo::Topology::synthetic("pack:2 core:4 pu:1");
  const auto m = comm::random_matrix(8, 0.5, 10.0, 1);
  const Result r = map_threads(topo, m, no_control());
  ASSERT_EQ(r.compute_pu.size(), 8u);
  comm::validate_mapping(topo, r.compute_pu, 1);
  for (int pu : r.compute_pu) EXPECT_GE(pu, 0);
  EXPECT_FALSE(r.oversubscribed);
  EXPECT_EQ(r.threads_per_leaf, 1);
}

TEST(MapThreads, ClusteredThreadsShareAPackage) {
  // 2 packs of 4 cores; 8 threads in 2 tight clusters of 4.
  const auto topo = topo::Topology::synthetic("pack:2 core:4 pu:1");
  const auto m = comm::clustered_matrix(8, 4, 100.0, 1.0);
  const Result r = map_threads(topo, m, no_control());
  // All threads of a cluster must land in the same package.
  const auto pus = topo.pus();
  for (int cluster = 0; cluster < 2; ++cluster) {
    const topo::Object* first_pack = nullptr;
    for (int t = cluster * 4; t < (cluster + 1) * 4; ++t) {
      const topo::Object* pu =
          pus[static_cast<std::size_t>(r.compute_pu[static_cast<std::size_t>(t)])];
      const topo::Object* pack = pu->parent->parent;  // pu -> core -> pack
      if (!first_pack) first_pack = pack;
      EXPECT_EQ(pack, first_pack) << "cluster " << cluster << " split";
    }
  }
}

TEST(MapThreads, StencilBeatsNaiveOrderOnHopBytes) {
  const auto topo = topo::Topology::synthetic("pack:4 core:4 pu:1");
  const auto m = comm::stencil_matrix({4, 4, 64, 64});
  const Result r = map_threads(topo, m, no_control());
  comm::validate_mapping(topo, r.compute_pu, 1);

  comm::Mapping naive(16);
  for (int t = 0; t < 16; ++t) naive[static_cast<std::size_t>(t)] = t;
  EXPECT_LE(comm::hop_bytes(topo, m, r.compute_pu),
            comm::hop_bytes(topo, m, naive));
}

TEST(MapThreads, DeterministicAcrossCalls) {
  const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:2");
  const auto m = comm::random_matrix(8, 0.6, 5.0, 21);
  const Result a = map_threads(topo, m, no_control());
  const Result b = map_threads(topo, m, no_control());
  EXPECT_EQ(a.compute_pu, b.compute_pu);
  EXPECT_EQ(a.control_pu, b.control_pu);
}

TEST(MapThreads, RejectsEmptyMatrix) {
  const auto topo = topo::Topology::flat(4);
  EXPECT_THROW(map_threads(topo, comm::CommMatrix(0)), ContractError);
}

TEST(MapThreads, RecordsGroupHierarchy) {
  const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:1");
  const auto m = comm::clustered_matrix(4, 2, 10.0, 1.0);
  const Result r = map_threads(topo, m, no_control());
  // Levels processed: pu (arity 1), core (arity 2), pack (arity 2).
  ASSERT_EQ(r.level_groups.size(), 3u);
  // The core-level grouping must pair the clusters {0,1} and {2,3}.
  const Groups& core_groups = r.level_groups[1];
  ASSERT_EQ(core_groups.size(), 2u);
  EXPECT_EQ(core_groups[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(core_groups[1], (std::vector<int>{2, 3}));
}

// --- oversubscription ------------------------------------------------------

TEST(Oversubscription, AddsVirtualLevel) {
  const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:1");  // 4 PUs
  const auto m = comm::clustered_matrix(8, 2, 10.0, 0.5);
  const Result r = map_threads(topo, m, no_control());
  EXPECT_TRUE(r.oversubscribed);
  EXPECT_EQ(r.threads_per_leaf, 2);
  comm::validate_mapping(topo, r.compute_pu, 2);
  // Tight pairs should share a PU.
  for (int c = 0; c < 4; ++c)
    EXPECT_EQ(r.compute_pu[static_cast<std::size_t>(2 * c)],
              r.compute_pu[static_cast<std::size_t>(2 * c + 1)])
        << "pair " << c << " split across PUs";
}

TEST(Oversubscription, DisallowedThrows) {
  const auto topo = topo::Topology::flat(2);
  Options opts = no_control();
  opts.allow_oversubscription = false;
  EXPECT_THROW(map_threads(topo, comm::uniform_matrix(5, 1.0), opts),
               ContractError);
}

TEST(Oversubscription, NonDivisibleThreadCount) {
  const auto topo = topo::Topology::flat(4);
  const auto m = comm::uniform_matrix(7, 1.0);  // 7 threads on 4 PUs -> k=2
  const Result r = map_threads(topo, m, no_control());
  EXPECT_TRUE(r.oversubscribed);
  EXPECT_EQ(r.threads_per_leaf, 2);
  comm::validate_mapping(topo, r.compute_pu, 2);
}

// --- control threads -------------------------------------------------------

TEST(Control, HyperthreadReservesSiblingPu) {
  // 2 packs x 2 cores x 2 PUs: HT strategy applies.
  const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:2");
  const auto m = comm::clustered_matrix(4, 2, 10.0, 1.0);
  Options opts;  // Auto
  const Result r = map_threads(topo, m, opts);
  EXPECT_EQ(r.control_used, ControlStrategy::Hyperthread);
  for (int t = 0; t < 4; ++t) {
    const int comp = r.compute_pu[static_cast<std::size_t>(t)];
    const int ctl = r.control_pu[static_cast<std::size_t>(t)];
    ASSERT_GE(ctl, 0);
    EXPECT_EQ(comp % 2, 0) << "compute thread on the even PU of its core";
    EXPECT_EQ(ctl, comp + 1) << "control thread on the sibling PU";
  }
  // Each core hosts exactly one compute thread.
  comm::validate_mapping(topo, r.compute_pu, 1);
}

TEST(Control, SpareCoresWhenNoSmt) {
  // 8 PUs, no SMT, 3 threads: spare cores available for control threads.
  const auto topo = topo::Topology::synthetic("pack:2 core:4 pu:1");
  const auto m = comm::ring_matrix(3, 10.0, false);
  Options opts;  // Auto
  const Result r = map_threads(topo, m, opts);
  EXPECT_EQ(r.control_used, ControlStrategy::SpareCores);
  comm::Mapping all;
  for (int t = 0; t < 3; ++t) {
    EXPECT_GE(r.control_pu[static_cast<std::size_t>(t)], 0);
    all.push_back(r.compute_pu[static_cast<std::size_t>(t)]);
    all.push_back(r.control_pu[static_cast<std::size_t>(t)]);
  }
  // Compute + control threads all get distinct PUs.
  comm::validate_mapping(topo, all, 1);
  // A control thread should sit near its compute thread: same package.
  const auto pus = topo.pus();
  for (int t = 0; t < 3; ++t) {
    const auto* comp =
        pus[static_cast<std::size_t>(r.compute_pu[static_cast<std::size_t>(t)])];
    const auto* ctl =
        pus[static_cast<std::size_t>(r.control_pu[static_cast<std::size_t>(t)])];
    EXPECT_GE(topo.common_ancestor_depth(*comp, *ctl), 1)
        << "control thread " << t << " landed on a remote package";
  }
}

TEST(Control, UnmanagedWhenNothingFits) {
  // 4 PUs, 4 threads, no SMT: no room for control threads.
  const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:1");
  const auto m = comm::uniform_matrix(4, 1.0);
  Options opts;  // Auto
  const Result r = map_threads(topo, m, opts);
  EXPECT_EQ(r.control_used, ControlStrategy::Unmanaged);
  for (int t = 0; t < 4; ++t)
    EXPECT_EQ(r.control_pu[static_cast<std::size_t>(t)], -1);
}

TEST(Control, ExplicitHyperthreadRejectedWithoutSmt) {
  const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:1");
  Options opts;
  opts.control = ControlStrategy::Hyperthread;
  EXPECT_THROW(map_threads(topo, comm::uniform_matrix(2, 1.0), opts),
               ContractError);
}

TEST(Control, ExplicitSpareCoresRejectedWhenTooFewPus) {
  const auto topo = topo::Topology::flat(4);
  Options opts;
  opts.control = ControlStrategy::SpareCores;
  EXPECT_THROW(map_threads(topo, comm::uniform_matrix(3, 1.0), opts),
               ContractError);
}

TEST(Control, DisabledManagementIsUnmanaged) {
  const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:2");
  Options opts;
  opts.manage_control_threads = false;
  const Result r = map_threads(topo, comm::uniform_matrix(4, 1.0), opts);
  EXPECT_EQ(r.control_used, ControlStrategy::Unmanaged);
}

TEST(Control, HyperthreadWithOversubscription) {
  // 2 cores with SMT-2: 4 PUs but only 2 compute slots; 4 threads need
  // oversubscription on the core level while keeping control siblings.
  const auto topo = topo::Topology::synthetic("pack:1 core:2 pu:2");
  const auto m = comm::clustered_matrix(4, 2, 10.0, 1.0);
  Options opts;
  const Result r = map_threads(topo, m, opts);
  EXPECT_EQ(r.control_used, ControlStrategy::Hyperthread);
  EXPECT_TRUE(r.oversubscribed);
  EXPECT_EQ(r.threads_per_leaf, 2);
  for (int t = 0; t < 4; ++t) {
    EXPECT_EQ(r.compute_pu[static_cast<std::size_t>(t)] % 2, 0);
    EXPECT_EQ(r.control_pu[static_cast<std::size_t>(t)],
              r.compute_pu[static_cast<std::size_t>(t)] + 1);
  }
}

TEST(Control, FlatTopologyNeverHyperthread) {
  const auto topo = topo::Topology::flat(8);
  Options opts;  // Auto: flat tree must not be mistaken for SMT
  const Result r = map_threads(topo, comm::uniform_matrix(3, 1.0), opts);
  EXPECT_EQ(r.control_used, ControlStrategy::SpareCores);
}

TEST(ToString, StrategyNames) {
  EXPECT_STREQ(to_string(ControlStrategy::Auto), "auto");
  EXPECT_STREQ(to_string(ControlStrategy::Hyperthread), "hyperthread");
  EXPECT_STREQ(to_string(ControlStrategy::SpareCores), "spare-cores");
  EXPECT_STREQ(to_string(ControlStrategy::Unmanaged), "unmanaged");
}

}  // namespace
}  // namespace orwl::treematch
