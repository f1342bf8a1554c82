// Tests for the NUMA cost-model simulator: sanity, monotonicity and the
// qualitative properties Figure 1 depends on.

#include <gtest/gtest.h>

#include <optional>

#include "lk23/lk23_program.h"
#include "orwl/backend.h"
#include "sim/lk23_model.h"
#include "sim/simulator.h"
#include "support/assert.h"
#include "sync/wait_strategy.h"
#include "workloads/workloads.h"

namespace orwl::sim {
namespace {

Workload one_thread(double flops, double bytes, int iters = 1) {
  Workload w;
  w.threads.push_back({flops, bytes, 0});
  w.iterations = iters;
  return w;
}

Placement fixed_at(std::vector<int> pus) {
  Placement p;
  p.compute_pu = pus;
  p.control_pu.assign(pus.size(), -1);
  p.data_home_pu = pus;
  return p;
}

TEST(CostModel, DefaultsValidateAgainstTopology) {
  const auto topo = topo::Topology::paper_machine();
  const LinkCost cost = LinkCost::defaults_for(topo);
  EXPECT_NO_THROW(cost.check(topo));
  // The ladder must be monotone: deeper common ancestor => cheaper.
  for (int d = 1; d < topo.depth(); ++d) {
    EXPECT_LE(cost.latency[static_cast<std::size_t>(d)],
              cost.latency[static_cast<std::size_t>(d - 1)]);
    EXPECT_GE(cost.bandwidth[static_cast<std::size_t>(d)],
              cost.bandwidth[static_cast<std::size_t>(d - 1)]);
  }
}

TEST(CostModel, SizeMismatchRejected) {
  const auto topo = topo::Topology::paper_machine();
  LinkCost cost = LinkCost::defaults_for(topo);
  cost.latency.pop_back();
  EXPECT_THROW(cost.check(topo), ContractError);
}

TEST(Simulate, ComputeScalesWithFlops) {
  const auto topo = topo::Topology::flat(2);
  const LinkCost cost = LinkCost::defaults_for(topo);
  const Report r1 = simulate(topo, cost, one_thread(1e6, 0.0), fixed_at({0}));
  const Report r2 = simulate(topo, cost, one_thread(2e6, 0.0), fixed_at({0}));
  EXPECT_NEAR(r2.total_seconds, 2.0 * r1.total_seconds, 1e-12);
}

TEST(Simulate, IterationsAccumulate) {
  const auto topo = topo::Topology::flat(2);
  const LinkCost cost = LinkCost::defaults_for(topo);
  const Report r1 =
      simulate(topo, cost, one_thread(1e6, 0.0, 1), fixed_at({0}));
  const Report r10 =
      simulate(topo, cost, one_thread(1e6, 0.0, 10), fixed_at({0}));
  EXPECT_NEAR(r10.total_seconds, 10.0 * r1.total_seconds, 1e-12);
}

TEST(Simulate, RemoteMemorySlowerThanLocal) {
  const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:1");
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w = one_thread(0.0, 1e8);
  Placement local = fixed_at({0});
  Placement remote = fixed_at({0});
  remote.data_home_pu = {3};  // other package
  const double t_local = simulate(topo, cost, w, local).total_seconds;
  const double t_remote = simulate(topo, cost, w, remote).total_seconds;
  EXPECT_GT(t_remote, t_local * 2.0);
}

TEST(Simulate, CommEdgesCheaperWhenColocated) {
  const auto topo = topo::Topology::synthetic("pack:2 core:4 pu:1");
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  w.threads = {{1e6, 0.0, 0}, {1e6, 0.0, 0}};
  w.edges = {{0, 1, 1e6}};
  const double near =
      simulate(topo, cost, w, fixed_at({0, 1})).total_seconds;
  const double far =
      simulate(topo, cost, w, fixed_at({0, 7})).total_seconds;
  EXPECT_GT(far, near);
}

TEST(Simulate, OversubscriptionSerializes) {
  const auto topo = topo::Topology::flat(4);
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  for (int i = 0; i < 4; ++i) w.threads.push_back({1e6, 0.0, 0});
  const Report spread = simulate(topo, cost, w, fixed_at({0, 1, 2, 3}));
  const Report stacked = simulate(topo, cost, w, fixed_at({0, 0, 0, 0}));
  EXPECT_NEAR(stacked.total_seconds, 4.0 * spread.total_seconds, 1e-9);
  EXPECT_EQ(stacked.max_pu_load, 4);
  EXPECT_EQ(spread.max_pu_load, 1);
}

TEST(Simulate, HotspotDomainSerialization) {
  // Many threads streaming from one domain are bounded by that domain's
  // aggregate bandwidth, not per-flow bandwidth.
  const auto topo = topo::Topology::synthetic("pack:4 core:4 pu:1");
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  for (int i = 0; i < 16; ++i) w.threads.push_back({0.0, 1e8, 0});
  Placement spread_data = fixed_at({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                                    13, 14, 15});
  Placement hotspot = spread_data;
  hotspot.data_home_pu.assign(16, -1);  // everything on PU 0's domain
  const double t_spread =
      simulate(topo, cost, w, spread_data).total_seconds;
  const double t_hot = simulate(topo, cost, w, hotspot).total_seconds;
  EXPECT_GT(t_hot, 2.0 * t_spread);
}

TEST(Simulate, UnmanagedControlPaysPenalty) {
  const auto topo = topo::Topology::flat(2);
  LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  w.threads = {{0.0, 0.0, 1000}};  // 1000 acquires, nothing else
  Placement managed = fixed_at({0});
  managed.control_pu = {0};
  Placement unmanaged = fixed_at({0});
  unmanaged.control_pu = {-1};
  const double t_managed = simulate(topo, cost, w, managed).total_seconds;
  const double t_unmanaged =
      simulate(topo, cost, w, unmanaged).total_seconds;
  EXPECT_GT(t_unmanaged, t_managed);
  // The managed path pays the (tiny) same-PU latency instead of the
  // penalty; the difference is the penalty minus that latency.
  EXPECT_NEAR(t_unmanaged - t_managed,
              1000 * (cost.unmanaged_grant_penalty - cost.latency.back()),
              1e-9);
}

TEST(Simulate, SpinWaitsDiscountParkWakeLatency) {
  // A spinning waiter consumes its grant without the futex park/wake
  // pair, so spin_waits workloads pay grant_overhead minus the measured
  // park+wake latencies (bench/micro_orwl_overhead's
  // park_wake_calibration cases). Block workloads — the recorded-baseline
  // configuration — must be bit-identical with the discount code in the
  // tree.
  const auto topo = topo::Topology::flat(2);
  LinkCost cost = LinkCost::defaults_for(topo);
  Workload blocking;
  blocking.threads = {{0.0, 0.0, 1000}};
  Workload spinning = blocking;
  spinning.spin_waits = true;
  Placement managed = fixed_at({0});
  managed.control_pu = {0};
  const Report rb = simulate(topo, cost, blocking, managed);
  const Report rs = simulate(topo, cost, spinning, managed);
  EXPECT_LT(rs.lock_seconds, rb.lock_seconds);
  EXPECT_NEAR(rb.lock_seconds - rs.lock_seconds,
              1000 * (cost.park_latency + cost.wake_latency), 1e-12);

  // The discount is floored at a quarter of the grant overhead: queue
  // work and announcement stay charged even if a host measured a
  // park/wake pair larger than the whole overhead.
  LinkCost extreme = cost;
  extreme.park_latency = cost.grant_overhead;
  extreme.wake_latency = cost.grant_overhead;
  const Report rf = simulate(topo, extreme, spinning, managed);
  EXPECT_NEAR(rf.lock_seconds,
              1000 * (0.25 * cost.grant_overhead + cost.latency.back()),
              1e-12);
}

TEST(Simulate, SimBackendChargesAnUnsetWaitStrategyAsBlock) {
  // Through SimBackend::run, only a program that names a non-block
  // strategy gets the spin discount above. No strategy means the blocking
  // grant the calibrated LinkCost assumes — not the runtime default — so
  // predictions for programs without one stay bit-identical.
  const auto predict = [](std::optional<sync::WaitStrategy> ws) {
    Program p;
    (void)workloads::get("pipeline").build(
        p, {.tasks = 4, .size = 64, .iterations = 20});
    p.place(place::Policy::TreeMatch);
    if (ws) p.wait_strategy(*ws);
    SimBackend backend(topo::Topology::flat(4));
    return p.run(backend).seconds;
  };
  const double unset = predict(std::nullopt);
  EXPECT_EQ(unset, predict(sync::WaitStrategy::block()));
  EXPECT_LT(predict(sync::WaitStrategy::spin_then_park()), unset);
}

TEST(Simulate, BarrierCostOnlyForForkJoin) {
  const auto topo = topo::Topology::flat(8);
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  for (int i = 0; i < 8; ++i) w.threads.push_back({0.0, 0.0, 0});
  Placement p = fixed_at({0, 1, 2, 3, 4, 5, 6, 7});
  w.sync = SyncModel::OrwlEvents;
  const double t_orwl = simulate(topo, cost, w, p).total_seconds;
  w.sync = SyncModel::ForkJoinBarrier;
  const double t_fj = simulate(topo, cost, w, p).total_seconds;
  EXPECT_EQ(t_orwl, 0.0);
  EXPECT_GT(t_fj, 0.0);
}

TEST(Simulate, UnboundPlacementDeterministicInSeed) {
  const auto topo = topo::Topology::synthetic("pack:2 core:4 pu:1");
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  for (int i = 0; i < 8; ++i) w.threads.push_back({1e6, 1e6, 0});
  w.iterations = 10;
  Placement p;
  p.compute_pu.assign(8, -1);
  p.control_pu.assign(8, -1);
  p.data_home_pu.assign(8, 0);
  const double a = simulate(topo, cost, w, p, 42).total_seconds;
  const double b = simulate(topo, cost, w, p, 42).total_seconds;
  EXPECT_EQ(a, b);
}

TEST(Simulate, TwoChoicesBalanceBetterThanOne) {
  // Power-of-two-choices must produce lower peak PU load than uniform
  // placement for many unbound equal threads.
  const auto topo = topo::Topology::synthetic("pack:4 core:8 pu:1");
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w;
  for (int i = 0; i < 32; ++i) w.threads.push_back({1e6, 0.0, 0});
  w.iterations = 20;
  Placement p;
  p.compute_pu.assign(32, -1);
  p.control_pu.assign(32, -1);
  p.data_home_pu.assign(32, 0);
  p.stickiness = 0.0;
  p.choices = 2;
  const Report po2 = simulate(topo, cost, w, p, 3);
  p.choices = 1;
  const Report uniform = simulate(topo, cost, w, p, 3);
  EXPECT_LE(po2.max_pu_load, uniform.max_pu_load);
  EXPECT_LE(po2.total_seconds, uniform.total_seconds * 1.0001);
}

TEST(Simulate, RejectsBadChoices) {
  const auto topo = topo::Topology::flat(2);
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w = one_thread(1.0, 1.0);
  Placement p = fixed_at({0});
  p.choices = 3;
  EXPECT_THROW(simulate(topo, cost, w, p), ContractError);
}

TEST(Simulate, InputValidation) {
  const auto topo = topo::Topology::flat(2);
  const LinkCost cost = LinkCost::defaults_for(topo);
  Workload w = one_thread(1.0, 1.0);
  Placement p = fixed_at({0});
  p.compute_pu.clear();
  EXPECT_THROW(simulate(topo, cost, w, p), ContractError);
  p = fixed_at({0});
  w.edges.push_back({0, 0, 1.0});  // self edge
  EXPECT_THROW(simulate(topo, cost, w, p), ContractError);
}

// --- Figure 1 model sanity -------------------------------------------------
// The ORWL columns of Figure 1 are the shared LK23 Program on SimBackend
// (unplaced = NoBind, TreeMatch = Bind); OpenMP is the fork-join model.

TEST(Lk23Model, OrwlWorkloadShape) {
  const lk23::Spec spec = lk23::spec_for_tasks(1024, 1, 16);  // 4x4 grid
  Program p;
  lk23::define_lk23_program(p, spec);
  SimBackend be(topo::Topology::paper_machine());
  const Workload w = be.workload(p);
  // Paper decomposition: every block has 1 main + exactly 8 frontier ops.
  EXPECT_EQ(w.threads.size(), 16u * 9u);
  EXPECT_EQ(w.sync, SyncModel::OrwlEvents);
  // NoBind: everything unbound.
  const RunReport rep = lk23::run_lk23_program(spec, place::Policy::None, be);
  ASSERT_EQ(rep.plan.compute_pu.size(), 16u * 9u);
  for (int pu : rep.plan.compute_pu) EXPECT_EQ(pu, -1);
}

TEST(Lk23Model, BindMapsEveryThread) {
  const auto topo = topo::Topology::paper_machine();
  SimBackend be(topo.clone());
  const RunReport rep = lk23::run_lk23_program(
      lk23::spec_for_tasks(1024, 1, 16), place::Policy::TreeMatch, be);
  ASSERT_TRUE(rep.placed);
  ASSERT_EQ(rep.plan.compute_pu.size(), 16u * 9u);
  for (int pu : rep.plan.compute_pu) {
    EXPECT_GE(pu, 0);
    EXPECT_LT(pu, topo.num_pus());
  }
}

/// Predicted seconds of the LK23 Program at `tasks` blocks of the paper's
/// 16384^2 matrix on the paper machine.
double predict_lk23(place::Policy policy, int tasks, int iterations) {
  SimBackend be(topo::Topology::paper_machine());
  return lk23::run_lk23_program(
             lk23::spec_for_tasks(16384, iterations, tasks), policy, be)
      .seconds;
}

TEST(Lk23Model, Figure1OrderingAtFullMachine) {
  // The headline property: at 192 cores, Bind < NoBind < OpenMP.
  const auto topo = topo::Topology::paper_machine();
  Lk23SimSpec spec;  // full paper spec: 16384^2, 192 tasks
  spec.iterations = 10;  // 10 iterations are enough for the ordering
  const double bind = predict_lk23(place::Policy::TreeMatch, 192, 10);
  const double nobind = predict_lk23(place::Policy::None, 192, 10);
  const double openmp =
      simulate_openmp_lk23(topo, LinkCost::defaults_for(topo), spec)
          .total_seconds;
  EXPECT_LT(bind, nobind);
  EXPECT_LT(nobind, openmp);
}

TEST(Lk23Model, BindScalesBeyondTwoSockets) {
  // "As soon as we scale beyond one or two sockets, standard approaches
  // fail to improve" — Bind must keep improving from 16 to 64 cores.
  const double t16 = predict_lk23(place::Policy::TreeMatch, 16, 5);
  const double t64 = predict_lk23(place::Policy::TreeMatch, 64, 5);
  EXPECT_LT(t64, t16 / 2.0);
}

}  // namespace
}  // namespace orwl::sim
