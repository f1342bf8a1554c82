// Tests for the workload registry: lookup, per-workload result
// verification on both backends, re-run safety, and the parity between the
// flow matrix the runtime MEASURES and the analytic pattern each workload
// PREDICTS (comm/patterns.*) — the property the measured-matrix feedback
// placement relies on.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string>

#include "comm/patterns.h"
#include "orwl/backend.h"
#include "support/assert.h"
#include "sync/wait_strategy.h"
#include "workloads/workloads.h"

namespace orwl::workloads {
namespace {

/// Small-but-nontrivial scale: a 2x2 block grid for the grid workloads,
/// several rounds so flows and pipelining actually happen.
Params tiny() { return {.tasks = 4, .size = 16, .iterations = 3}; }

TEST(Registry, ListsAtLeastFourWorkloads) {
  EXPECT_GE(registry().size(), 4u);
  const std::vector<std::string> got = names();
  for (const char* expected :
       {"lk23", "stencil2d", "wavefront", "alltoall", "pipeline"}) {
    EXPECT_NE(std::find(got.begin(), got.end(), expected), got.end())
        << "missing workload " << expected;
  }
}

TEST(Registry, FindAndGet) {
  ASSERT_NE(find("stencil2d"), nullptr);
  EXPECT_EQ(find("stencil2d")->name, "stencil2d");
  EXPECT_EQ(find("no-such-workload"), nullptr);
  EXPECT_EQ(get("lk23").name, "lk23");
  try {
    (void)get("no-such-workload");
    FAIL() << "get() on an unknown name did not throw";
  } catch (const ContractError& e) {
    // The error lists the registered names so CLI typos are actionable.
    EXPECT_NE(std::string(e.what()).find("no-such-workload"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("stencil2d"), std::string::npos);
  }
}

TEST(Registry, BuildReportsTaskCountAndPredictedMatrix) {
  for (const Workload& w : registry()) {
    Program p;
    const Built built = w.build(p, tiny());
    EXPECT_EQ(built.num_tasks, p.num_tasks()) << w.name;
    EXPECT_EQ(built.predicted.order(), built.num_tasks) << w.name;
    EXPECT_TRUE(static_cast<bool>(built.verify)) << w.name;
  }
}

TEST(Workloads, VerifyOnRuntimeBackend) {
  for (const Workload& w : registry()) {
    Program p;
    const Built built = w.build(p, tiny());
    RuntimeBackend backend;
    p.run(backend);
    std::string why;
    EXPECT_TRUE(built.verify(backend, why)) << w.name << ": " << why;
  }
}

TEST(Workloads, VerifyOnSimBackendEmulation) {
  for (const Workload& w : registry()) {
    Program p;
    const Built built = w.build(p, tiny());
    SimBackendOptions opts;
    opts.emulate = true;
    const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:1");
    SimBackend backend(topo.clone(), sim::LinkCost::defaults_for(topo), opts);
    const RunReport rep = p.run(backend);
    EXPECT_GT(rep.seconds, 0.0) << w.name;
    std::string why;
    EXPECT_TRUE(built.verify(backend, why)) << w.name << ": " << why;
  }
}

TEST(Workloads, ReRunningTheSameProgramStaysCorrect) {
  // Bodies must reset their captured state on Step::first(): the harness
  // re-runs one Program per repetition.
  for (const Workload& w : registry()) {
    Program p;
    const Built built = w.build(p, tiny());
    RuntimeBackend backend;
    p.run(backend);
    p.run(backend);
    std::string why;
    EXPECT_TRUE(built.verify(backend, why))
        << w.name << " after re-run: " << why;
  }
}

TEST(Workloads, MeasuredFlowsMatchPredictedSupport) {
  for (const Workload& w : registry()) {
    Program p;
    const Built built = w.build(p, tiny());
    RuntimeBackend backend;  // record_flows defaults on
    p.run(backend);
    const comm::CommMatrix measured =
        backend.runtime().measured_comm_matrix();
    ASSERT_EQ(measured.order(), built.predicted.order()) << w.name;
    for (int i = 0; i < measured.order(); ++i) {
      for (int j = i + 1; j < measured.order(); ++j) {
        EXPECT_EQ(measured.at(i, j) > 0.0, built.predicted.at(i, j) > 0.0)
            << w.name << ": tasks (" << i << ", " << j
            << ") measured=" << measured.at(i, j)
            << " predicted=" << built.predicted.at(i, j);
      }
    }
    EXPECT_GT(measured.total_volume(), 0.0) << w.name;
  }
}

// Every parking point (grant waits, the epoch barrier) under every wait
// strategy, against the same oracle: the data must verify, and the grant
// count must equal the default run's — how a grant is waited for never
// changes how many there are. Re-placing every epoch puts the epoch
// barrier on the path.
TEST(Workloads, EveryWaitStrategyMatchesTheDefaultRun) {
  const auto build = [](const Workload& w, Program& p) {
    Built built = w.build(p, tiny());
    p.place(place::Policy::TreeMatch);
    p.replacement(place::ReplacementPolicy::every_epoch(1));
    return built;
  };
  for (const Workload& w : registry()) {
    std::uint64_t default_grants = 0;
    {
      Program p;
      const Built built = build(w, p);
      RuntimeBackend backend;
      default_grants = p.run(backend).grants;
      std::string why;
      ASSERT_TRUE(built.verify(backend, why)) << w.name << ": " << why;
      ASSERT_GT(default_grants, 0u) << w.name;
    }
    for (const sync::WaitStrategy ws :
         {sync::WaitStrategy::block(), sync::WaitStrategy::spin_then_park(256),
          sync::WaitStrategy::spin()}) {
      SCOPED_TRACE(w.name + " / " + sync::to_string(ws));
      Program p;
      const Built built = build(w, p);
      p.wait_strategy(ws);
      RuntimeBackend backend;
      const RunReport rep = p.run(backend);
      std::string why;
      EXPECT_TRUE(built.verify(backend, why)) << why;
      EXPECT_EQ(rep.grants, default_grants);
    }
  }
}

// The oversubscription gate (ROADMAP stress tier): tasks far beyond the
// PU count — on the 1-PU CI hosts this is 32 compute threads (one per
// task) convoying on one core — must
// still verify bit-exactly, bound or unbound. Run on the runtime default
// wait strategy and on `block`.
void run_oversubscribed(std::optional<sync::WaitStrategy> ws) {
  Program p;
  const Built built = get("oversub").build(
      p, {.tasks = 32, .size = 8, .iterations = 4});
  p.place(place::Policy::Compact);  // wraps all 32 tasks onto the real PUs
  if (ws) p.wait_strategy(*ws);
  RuntimeBackend backend;
  const RunReport rep = p.run(backend);
  EXPECT_TRUE(rep.placed);
  std::string why;
  EXPECT_TRUE(built.verify(backend, why)) << why;
}

TEST(Workloads, OversubscriptionStressTasksFarBeyondPUs) {
  run_oversubscribed(std::nullopt);
}

TEST(Workloads, OversubscriptionStressTasksFarBeyondPUsBlocking) {
  run_oversubscribed(sync::WaitStrategy::block());
}

// Runs `workload` at `params` on RuntimeBackend and on the emulating
// SimBackend, and verifies each run against the workload's reference.
void check_both(const char* workload, const Params& params) {
  SCOPED_TRACE(std::string(workload) + ", tasks " +
               std::to_string(params.tasks) + ", size " +
               std::to_string(params.size) + ", iterations " +
               std::to_string(params.iterations));
  const auto check = [&](Backend& backend, const char* name) {
    Program p;
    const Built built = get(workload).build(p, params);
    p.run(backend);
    std::string why;
    EXPECT_TRUE(built.verify(backend, why)) << name << ": " << why;
  };
  RuntimeBackend runtime;
  check(runtime, "runtime");
  const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:1");
  SimBackend emulating(topo.clone(), sim::LinkCost::defaults_for(topo),
                       {.emulate = true});
  check(emulating, "emulating sim");
}

// stencil2d's sweep treats a block's first and last row and its two edge
// columns apart from the interior, and wavefront's reads its west and north
// operands from the halo edges at a block's first column and row, so every
// grid shape gets checked bit-for-bit against the reference: 1x1 (all four
// global borders in one block) through 3x3 (a block with halos on every
// side). Over 1 to 3 blocks per axis the sizes give block widths and
// heights of 2, 3, 5, 7, 8, 11, 16 and 33:
// - size 2: every point an edge; stencil2d's interior loop runs zero times;
// - size 3: 3-wide blocks, whose one interior point is jacobi_row's scalar
//   tail;
// - widths 5, 7, 11 and 33 end the two-point loop with the tail, 8 and 16
//   do not;
// - size 7 at 2 tasks: a 3-wide, 7-tall block, so wavefront sweeps one band
//   of four rows narrower than its skew (the first three steps and the last
//   three overlap) and then three single rows;
// - heights 8/16, 5/33, 2 and 3/7/11 leave 0, 1, 2 and 3 rows after
//   wavefront's bands of four.
// wavefront needs at least one iteration. phaseshift's faces are sized by
// `size`, not by the grid, so it runs one small size; at 1 iteration it
// has no transpose phase, at 2 and 4 it runs both phases.
TEST(Workloads, GridWorkloadsMatchReferenceOnEveryGeometry) {
  for (const char* workload : {"stencil2d", "wavefront"})
    for (const int tasks : {1, 2, 3, 4, 6, 9})
      for (const long size : {2, 3, 5, 7, 16, 33})
        for (const int iterations : {0, 1, 3}) {
          if (iterations == 0 && std::string(workload) == "wavefront")
            continue;
          check_both(workload, {.tasks = tasks, .size = size,
                                .iterations = iterations});
        }
  for (const int tasks : {1, 2, 3, 4, 6, 9})
    for (const int iterations : {1, 2, 4})
      check_both("phaseshift",
                 {.tasks = tasks, .size = 5, .iterations = iterations});
}

// Every declared access of a grid workload is granted once per round it
// runs, so the grant count follows from the declarations alone. With B
// blocks and D the sum over blocks of their axis neighbours: stencil2d
// writes its block and D faces in each of its T+1 rounds and reads D
// halos in rounds 1..T; at T = 0 the unused halo requests are drained
// once. wavefront writes its block and its east/south edges and reads its
// west/north edges in each of its T rounds.
TEST(Workloads, GridWorkloadsGrantEveryDeclaredAccess) {
  for (const int tasks : {1, 2, 4, 6, 9}) {
    const auto [gx, gy] = comm::block_grid(tasks);
    const auto B = static_cast<std::uint64_t>(gx * gy);
    const auto D =
        static_cast<std::uint64_t>(2 * ((gx - 1) * gy + gx * (gy - 1)));
    for (const int T : {0, 1, 3, 20}) {
      const auto t = static_cast<std::uint64_t>(T);
      const struct {
        const char* name;
        std::uint64_t grants;
      } expected[] = {
          {"stencil2d", (t + 1) * (B + D) + std::max<std::uint64_t>(t, 1) * D},
          {"wavefront", t * (B + D)}};
      for (const auto& e : expected) {
        if (T == 0 && std::string(e.name) == "wavefront") continue;
        SCOPED_TRACE(std::string(e.name) + ", tasks " +
                     std::to_string(tasks) + ", T " + std::to_string(T));
        Program p;
        const Built built =
            get(e.name).build(p, {.tasks = tasks, .size = 8, .iterations = T});
        RuntimeBackend backend;
        EXPECT_EQ(p.run(backend).grants, e.grants);
        std::string why;
        EXPECT_TRUE(built.verify(backend, why)) << why;
      }
    }
  }
}

// An alltoall peer copies the n - 1 chunks it reads into one buffer and
// folds them in groups of three, the chunks after the last group alone;
// a pipeline stage copies each frame before transforming it. Both are
// checked exact against their references at n - 1 = 0 chunks (nothing to
// read), 1 and 2 (no group), 3 (one group), 4 (a group and one left
// over), 6 (two groups) and 8 (two groups and two left over), from
// one-element chunks up to the benchmark's 1024, and over rounds that
// carry each peer's sum and
// the hand-off buffers from one round into the next. A chunk folded twice
// or left out shows; the order of the adds cannot: every chunk value and
// every partial sum is a multiple of 1/256 far below 2^45, so each add is
// exact.
TEST(Workloads, ExchangeWorkloadsMatchReferenceOnEveryShape) {
  for (const char* workload : {"alltoall", "pipeline"})
    for (const int tasks : {1, 2, 3, 4, 5, 7, 9})
      for (const long size : {1, 2, 3, 7, 33, 1024})
        for (const int iterations : {1, 2, 5})
          check_both(workload, {.tasks = tasks, .size = size,
                                .iterations = iterations});
}

// The doubles of the location named `name` after `p` ran on `backend`.
std::span<double> location_doubles(const Program& p, RuntimeBackend& backend,
                                   const std::string& name) {
  for (LocationId id = 0; id < p.num_locations(); ++id)
    if (p.location_decls()[static_cast<std::size_t>(id)].name == name)
      return as_span<double>(backend.runtime().location_data(id));
  ADD_FAILURE() << "no location " << name;
  return {};
}

double sum_of(std::span<const double> v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// At the benchmark's size of 1024 doubles, a stale or misrouted read must
// not verify. Each case edits one result the way such a read would have
// left it: an alltoall peer that folded a neighbour's chunk of the round
// before, or another neighbour's chunk in its place, in the last round;
// and a pipeline frame whose checksum is its predecessor's, as when a
// stage reads the frame before.
TEST(Workloads, ExchangeVerificationCatchesStaleAndMisroutedReads) {
  const auto run = [](const char* workload, int iterations, Program& p,
                      RuntimeBackend& backend) {
    Built built = get(workload).build(
        p, {.tasks = 4, .size = 1024, .iterations = iterations});
    p.run(backend);
    return built;
  };
  {
    // The chunks after 3 rounds, and after 2: round 1's.
    Program p, before;
    RuntimeBackend backend, before_backend;
    const Built built = run("alltoall", 3, p, backend);
    run("alltoall", 2, before, before_backend);
    std::string why;
    ASSERT_TRUE(built.verify(backend, why)) << why;
    double& acc = location_doubles(p, backend, "acc0")[0];
    const double good = acc;
    const double last1 = sum_of(location_doubles(p, backend, "chunk1"));
    const double prev1 =
        sum_of(location_doubles(before, before_backend, "chunk1"));
    const double last2 = sum_of(location_doubles(p, backend, "chunk2"));
    acc = good - last1 + prev1;
    EXPECT_FALSE(built.verify(backend, why)) << "a stale read verified";
    acc = good - last1 + last2;
    EXPECT_FALSE(built.verify(backend, why)) << "a misrouted read verified";
  }
  {
    Program p;
    RuntimeBackend backend;
    const Built built = run("pipeline", 16, p, backend);
    std::string why;
    ASSERT_TRUE(built.verify(backend, why)) << why;
    const std::span<double> sums = location_doubles(p, backend, "sums");
    ASSERT_EQ(sums.size(), 16u);
    for (std::size_t r = 1; r < sums.size(); ++r) {
      const double good = sums[r];
      sums[r] = sums[r - 1];
      EXPECT_FALSE(built.verify(backend, why))
          << "frame " << r << " verified with frame " << r - 1
          << "'s checksum";
      sums[r] = good;
    }
  }
}

// Every declared access of an exchange workload is granted once per
// round. An alltoall peer writes its chunk, reads the n - 1 others and
// writes its sum: n + 1 grants for each of n peers. A pipeline of n stages
// writes and reads each of its n - 1 hand-off buffers and writes the
// checksum store once: 2n - 1 grants.
TEST(Workloads, ExchangeWorkloadsGrantEveryDeclaredAccess) {
  for (const int n : {1, 2, 3, 4, 5, 6, 7})
    for (const int T : {1, 2, 5}) {
      const auto tasks = static_cast<std::uint64_t>(n);
      const auto t = static_cast<std::uint64_t>(T);
      const struct {
        const char* name;
        std::uint64_t grants;
      } expected[] = {{"alltoall", t * tasks * (tasks + 1)},
                      {"pipeline", t * (2 * tasks - 1)}};
      for (const auto& e : expected) {
        SCOPED_TRACE(std::string(e.name) + ", tasks " + std::to_string(n) +
                     ", T " + std::to_string(T));
        Program p;
        const Built built =
            get(e.name).build(p, {.tasks = n, .size = 4, .iterations = T});
        RuntimeBackend backend;
        EXPECT_EQ(p.run(backend).grants, e.grants);
        std::string why;
        EXPECT_TRUE(built.verify(backend, why)) << why;
      }
    }
}

TEST(Workloads, SingleTaskDegenerateCasesRun) {
  for (const char* name : {"alltoall", "pipeline", "oversub"}) {
    Program p;
    const Built built =
        get(name).build(p, {.tasks = 1, .size = 8, .iterations = 2});
    RuntimeBackend backend;
    p.run(backend);
    std::string why;
    EXPECT_TRUE(built.verify(backend, why)) << name << ": " << why;
  }
}

}  // namespace
}  // namespace orwl::workloads
