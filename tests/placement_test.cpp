// Unit tests for the placement policies and the runtime binder.

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "comm/patterns.h"
#include "place/placement.h"
#include "support/assert.h"
#include "topo/binding.h"

namespace orwl::place {
namespace {

TEST(PolicyNames, RoundTrip) {
  for (Policy p : {Policy::None, Policy::Compact, Policy::Scatter,
                   Policy::Random, Policy::TreeMatch}) {
    EXPECT_EQ(parse_policy(to_string(p)), p);
  }
  EXPECT_EQ(parse_policy("nobind"), Policy::None);
  EXPECT_EQ(parse_policy("bind"), Policy::TreeMatch);
  EXPECT_THROW(parse_policy("garbage"), ContractError);
}

TEST(PolicyNames, ParseIsCaseInsensitive) {
  // CLI flags arrive in whatever case the user typed.
  EXPECT_EQ(parse_policy("TreeMatch"), Policy::TreeMatch);
  EXPECT_EQ(parse_policy("NONE"), Policy::None);
  EXPECT_EQ(parse_policy("Compact"), Policy::Compact);
  EXPECT_EQ(parse_policy("SCATTER"), Policy::Scatter);
  EXPECT_EQ(parse_policy("Bind"), Policy::TreeMatch);
  EXPECT_EQ(parse_policy("NoBind"), Policy::None);
}

TEST(PolicyNames, UnknownNamesThrowAndNameTheInput) {
  for (const char* bad : {"", " ", "treematch ", " none", "tree-match",
                          "best", "os"}) {
    try {
      (void)parse_policy(bad);
      FAIL() << "parse_policy(\"" << bad << "\") did not throw";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown placement policy"),
                std::string::npos)
          << e.what();
    }
  }
  // The message carries the offending name so CLI errors are actionable.
  try {
    (void)parse_policy("speedy");
    FAIL() << "parse_policy(\"speedy\") did not throw";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find("speedy"), std::string::npos);
  }
}

TEST(ScatterOrder, SpreadsAcrossPackagesFirst) {
  const auto topo = topo::Topology::synthetic("pack:2 core:4 pu:1");
  const std::vector<int> order = scatter_order(topo);
  ASSERT_EQ(order.size(), 8u);
  // Consecutive scatter slots alternate packages: PU indices 0-3 are pack0,
  // 4-7 pack1.
  EXPECT_LT(order[0], 4);
  EXPECT_GE(order[1], 4);
  EXPECT_LT(order[2], 4);
  EXPECT_GE(order[3], 4);
  // It is a permutation.
  EXPECT_EQ(std::set<int>(order.begin(), order.end()).size(), 8u);
}

TEST(ComputePlan, NoneLeavesUnbound) {
  const auto topo = topo::Topology::flat(4);
  const auto m = comm::uniform_matrix(4, 1.0);
  const Plan plan = compute_plan(Policy::None, topo, m);
  for (int pu : plan.compute_pu) EXPECT_EQ(pu, -1);
}

TEST(ComputePlan, CompactFillsSequentially) {
  const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:1");
  const auto m = comm::uniform_matrix(3, 1.0);
  const Plan plan = compute_plan(Policy::Compact, topo, m);
  EXPECT_EQ(plan.compute_pu, (comm::Mapping{0, 1, 2}));
}

TEST(ComputePlan, CompactWrapsWhenOversubscribed) {
  const auto topo = topo::Topology::flat(2);
  const auto m = comm::uniform_matrix(5, 1.0);
  const Plan plan = compute_plan(Policy::Compact, topo, m);
  EXPECT_EQ(plan.compute_pu, (comm::Mapping{0, 1, 0, 1, 0}));
}

TEST(ComputePlan, RandomIsSeededPermutation) {
  const auto topo = topo::Topology::flat(8);
  const auto m = comm::uniform_matrix(8, 1.0);
  const Plan a = compute_plan(Policy::Random, topo, m, {}, 5);
  const Plan b = compute_plan(Policy::Random, topo, m, {}, 5);
  const Plan c = compute_plan(Policy::Random, topo, m, {}, 6);
  EXPECT_EQ(a.compute_pu, b.compute_pu);
  EXPECT_NE(a.compute_pu, c.compute_pu);
  EXPECT_EQ(std::set<int>(a.compute_pu.begin(), a.compute_pu.end()).size(),
            8u);
}

TEST(ComputePlan, TreeMatchProducesValidPlanAndDiagnostics) {
  const auto topo = topo::Topology::synthetic("pack:2 core:4 pu:1");
  const auto m = comm::clustered_matrix(8, 4, 10.0, 1.0);
  treematch::Options tm;
  tm.manage_control_threads = false;
  const Plan plan = compute_plan(Policy::TreeMatch, topo, m, tm);
  comm::validate_mapping(topo, plan.compute_pu, 1);
  EXPECT_FALSE(plan.treematch.level_groups.empty());
}

TEST(ComputePlan, RejectsEmptyMatrix) {
  const auto topo = topo::Topology::flat(2);
  EXPECT_THROW(compute_plan(Policy::Compact, topo, comm::CommMatrix(0)),
               ContractError);
}

TEST(ApplyPlan, BindsComputeThreads) {
  // The task's compute thread runs on its planned PU. control_pu is the
  // simulator's model of the paper's control threads; the runtime has no
  // control thread, so it binds nothing.
  const auto topo = topo::Topology::host();
  const int last = topo.num_pus() - 1;
  Runtime rt;
  const LocationId loc = rt.add_location(sizeof(int));
  std::optional<topo::Bitmap> seen;
  const TaskId t = rt.add_task("t", [&seen](TaskContext& ctx) {
    seen = topo::current_thread_binding();
    Handle& h = ctx.handle(0);
    auto bytes = h.acquire();
    as_span<int>(bytes)[0] = 11;
    h.release();
  });
  rt.add_handle(t, loc, AccessMode::Write);
  Plan plan;
  plan.compute_pu = {last};
  plan.control_pu = {0};
  apply_plan(plan, topo, rt);
  rt.run();
  EXPECT_EQ(as_span<int>(rt.location_data(loc))[0], 11);
  if (seen) {
    EXPECT_EQ(*seen, topo.pus()[static_cast<std::size_t>(last)]->cpuset);
  }
}

TEST(ApplyPlan, RejectsShortPlan) {
  const auto topo = topo::Topology::flat(2);
  Runtime rt;
  rt.add_task("a", [](TaskContext&) {});
  rt.add_task("b", [](TaskContext&) {});
  Plan plan;
  plan.compute_pu = {0};  // only one entry for two tasks
  EXPECT_THROW(apply_plan(plan, topo, rt), ContractError);
}

TEST(ApplyPlan, EndToEndPoliciesRun) {
  // Each policy must produce a runnable configuration on the host machine.
  const auto topo = topo::Topology::host();
  for (Policy policy : {Policy::None, Policy::Compact, Policy::Scatter,
                        Policy::Random, Policy::TreeMatch}) {
    Runtime rt;
    const LocationId loc = rt.add_location(sizeof(long));
    for (int i = 0; i < 4; ++i) {
      rt.add_task("t" + std::to_string(i), [i](TaskContext& ctx) {
        Handle& h = ctx.handle(i);
        for (int round = 0; round < 5; ++round) {
          auto bytes = h.acquire();
          as_span<long>(bytes)[0] += 1;
          if (round == 4)
            h.release();
          else
            h.release_and_renew();
        }
      });
    }
    for (int i = 0; i < 4; ++i) rt.add_handle(i, loc, AccessMode::Write);
    treematch::Options tm;  // Auto control strategy, whatever the host has
    const Plan plan =
        compute_plan(policy, topo, rt.static_comm_matrix(), tm);
    apply_plan(plan, topo, rt);
    rt.run();
    EXPECT_EQ(as_span<long>(rt.location_data(loc))[0], 20)
        << "policy " << to_string(policy);
  }
}

}  // namespace
}  // namespace orwl::place
