// End-to-end integration tests: the shared ORWL LK23 definition
// (lk23::define_lk23_program on a RuntimeBackend) and the fork-join
// implementation must reproduce the blocked reference bit-for-bit, under
// every placement policy and control mode.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "lk23/forkjoin_impl.h"
#include "lk23/kernel.h"
#include "lk23/lk23_program.h"
#include "orwl/backend.h"

namespace orwl::lk23 {
namespace {

Spec small_spec() {
  Spec spec;
  spec.n = 64;
  spec.iterations = 6;
  spec.bx = 4;
  spec.by = 2;
  return spec;
}

// One run of the shared definition on a RuntimeBackend planning against
// `topo`: the final field plus the run's report.
struct ProgramRun {
  std::vector<double> za;
  RunReport report;
  int num_tasks = 0;
};

ProgramRun run_program(const Spec& spec, place::Policy policy,
                       RuntimeOptions opts = {},
                       topo::Topology topo = topo::Topology::host()) {
  RuntimeBackend be(opts, std::move(topo));
  ProgramDef def;
  ProgramRun run;
  run.report = run_lk23_program(spec, policy, be, &def);
  run.za = fetch_field(be, def);
  run.num_tasks = def.num_tasks;
  return run;
}

TEST(OrwlLk23, MatchesBlockedReferenceBitwise) {
  const Spec spec = small_spec();
  const ProgramRun res = run_program(spec, place::Policy::None);
  const auto ref = blocked_reference(spec);
  EXPECT_EQ(max_abs_diff(res.za, ref), 0.0);
  // 8 blocks, each with a main op; frontier op count depends on geometry.
  EXPECT_GT(res.num_tasks, 8);
}

TEST(OrwlLk23, SingleBlockDegenerateCase) {
  Spec spec;
  spec.n = 32;
  spec.iterations = 4;
  spec.bx = 1;
  spec.by = 1;
  const ProgramRun res = run_program(spec, place::Policy::None);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
  EXPECT_EQ(res.num_tasks, 9)
      << "1 main + 8 frontier ops even without neighbours (paper Sec. III)";
}

TEST(OrwlLk23, ZeroIterations) {
  Spec spec = small_spec();
  spec.iterations = 0;
  const ProgramRun res = run_program(spec, place::Policy::None);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
}

TEST(OrwlLk23, AllPoliciesProduceIdenticalResults) {
  const Spec spec = small_spec();
  const auto ref = blocked_reference(spec);
  for (place::Policy policy :
       {place::Policy::None, place::Policy::Compact, place::Policy::Scatter,
        place::Policy::Random, place::Policy::TreeMatch}) {
    const ProgramRun res = run_program(spec, policy);
    EXPECT_EQ(max_abs_diff(res.za, ref), 0.0)
        << "policy " << place::to_string(policy)
        << " changed the numerics";
  }
}

TEST(OrwlLk23, DirectControlModeIdentical) {
  const Spec spec = small_spec();
  RuntimeOptions direct;
  direct.control = RuntimeOptions::ControlMode::Direct;
  const ProgramRun res = run_program(spec, place::Policy::TreeMatch, direct);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
}

TEST(OrwlLk23, StaticMatrixMatchesStencilStructure) {
  const Spec spec = small_spec();
  Program p;
  const ProgramDef def = define_lk23_program(p, spec);
  const comm::CommMatrix m = p.static_comm_matrix();
  EXPECT_EQ(m.order(), def.num_tasks);
  // Every main op communicates with its own frontier ops (they read the
  // block) — mains are tasks 0..7; all their rows must be non-empty.
  for (int b = 0; b < 8; ++b) {
    double row = 0.0;
    for (int j = 0; j < m.order(); ++j) row += m.at(b, j);
    EXPECT_GT(row, 0.0) << "main " << b << " communicates with nobody";
  }
}

TEST(OrwlLk23, MeasuredFlowsReflectIterations) {
  Spec spec;
  spec.n = 16;
  spec.iterations = 3;
  spec.bx = 2;
  spec.by = 1;
  const ProgramRun res = run_program(spec, place::Policy::None);
  // 2 blocks: mains (2) write T+1 times each; 2 frontier ops do 2 grants
  // per round.
  EXPECT_GT(res.report.grants, 0u);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
}

TEST(ForkJoinLk23, MatchesBlockedReferenceBitwise) {
  const Spec spec = small_spec();
  for (int threads : {1, 2, 4, 8}) {
    const ForkJoinRunResult res = run_forkjoin(spec, threads);
    EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0)
        << threads << " threads";
  }
}

TEST(ForkJoinLk23, BoundVariantIdentical) {
  const Spec spec = small_spec();
  const auto topo = topo::Topology::host();
  const ForkJoinRunResult res = run_forkjoin(spec, 4, &topo);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
}

TEST(ForkJoinLk23, MoreThreadsThanBlocks) {
  Spec spec;
  spec.n = 32;
  spec.iterations = 3;
  spec.bx = 2;
  spec.by = 1;
  const ForkJoinRunResult res = run_forkjoin(spec, 8);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
}

TEST(OrwlVsForkJoin, IdenticalFields) {
  const Spec spec = small_spec();
  const ProgramRun orwl_res = run_program(spec, place::Policy::TreeMatch);
  const auto fj_res = run_forkjoin(spec, 4);
  EXPECT_EQ(max_abs_diff(orwl_res.za, fj_res.za), 0.0);
}

TEST(OrwlLk23, SharedPoolControlModeIdentical) {
  const Spec spec = small_spec();
  RuntimeOptions opts;
  opts.control = RuntimeOptions::ControlMode::SharedPool;
  opts.shared_control_threads = 3;
  const ProgramRun res = run_program(spec, place::Policy::TreeMatch, opts);
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
}

TEST(OrwlLk23, ForeignTopologyBindingsFailGracefully) {
  // Planning against the paper's 192-core machine on a small host: the
  // cpusets name CPUs that do not exist, bind_current_thread returns
  // false, and the program must still run to the correct result.
  const Spec spec = small_spec();
  const ProgramRun res = run_program(spec, place::Policy::TreeMatch, {},
                                     topo::Topology::paper_machine());
  EXPECT_EQ(max_abs_diff(res.za, blocked_reference(spec)), 0.0);
}

// Parameterized sweep: (n, bx, by, iterations) — both parallel
// implementations must match the blocked reference bit-for-bit on every
// geometry, including degenerate strips.
using GeomParam = std::tuple<long, int, int, int>;
class GeometrySweep : public ::testing::TestWithParam<GeomParam> {};

TEST_P(GeometrySweep, OrwlAndForkJoinMatchReference) {
  const auto [n, bx, by, iters] = GetParam();
  Spec spec;
  spec.n = n;
  spec.bx = bx;
  spec.by = by;
  spec.iterations = iters;
  const auto ref = blocked_reference(spec);
  const ProgramRun orwl_res = run_program(spec, place::Policy::TreeMatch);
  EXPECT_EQ(max_abs_diff(orwl_res.za, ref), 0.0) << "ORWL diverged";
  const auto fj = run_forkjoin(spec, 4);
  EXPECT_EQ(max_abs_diff(fj.za, ref), 0.0) << "fork-join diverged";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, GeometrySweep,
    ::testing::Values(GeomParam{32, 1, 1, 5}, GeomParam{32, 2, 2, 5},
                      GeomParam{32, 4, 1, 3}, GeomParam{32, 1, 4, 3},
                      GeomParam{64, 8, 8, 2}, GeomParam{48, 3, 2, 4},
                      GeomParam{64, 2, 4, 7}, GeomParam{16, 4, 4, 10}));

}  // namespace
}  // namespace orwl::lk23
