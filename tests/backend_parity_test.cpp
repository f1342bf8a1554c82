// Backend parity: one Program definition, executed by RuntimeBackend and
// by SimBackend (emulation mode), must produce identical data — and the
// LK23 shared definition must reproduce the blocked sequential reference
// (native path) and derive the paper's decomposition (sim path).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "comm/comm_matrix.h"
#include "comm/patterns.h"
#include "lk23/kernel.h"
#include "lk23/lk23_program.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "orwl/backend.h"
#include "orwl/program.h"

namespace orwl {
namespace {

// The quickstart ring, defined once and handed to any backend.
struct Ring {
  std::vector<Location<long>> stages;
};

Ring define_ring(Program& p, int stages, int rounds) {
  Ring ring;
  for (int i = 0; i < stages; ++i)
    ring.stages.push_back(p.location<long>(1, "stage" + std::to_string(i)));
  for (int i = 0; i < stages; ++i) {
    const Location<long> in = ring.stages[static_cast<std::size_t>(i)];
    const Location<long> out =
        ring.stages[static_cast<std::size_t>((i + 1) % stages)];
    p.task("stage" + std::to_string(i))
        .reads(in)
        .writes(out)
        .iterations(rounds)
        .cost(1.0, static_cast<double>(sizeof(long)))
        .body([in, out](Step& s) {
          const long v =
              s.read(in, [](std::span<const long> x) { return x[0]; });
          s.write(out, [v](std::span<long> x) { x[0] = v + 1; });
        });
  }
  return ring;
}

TEST(BackendParity, RingProducesIdenticalResultsOnBothBackends) {
  constexpr int kStages = 4;
  constexpr int kRounds = 10;

  Program p;
  const Ring ring = define_ring(p, kStages, kRounds);
  p.place(place::Policy::TreeMatch);

  RuntimeBackend real;
  const RunReport real_rep = p.run(real);

  SimBackendOptions so;
  so.emulate = true;
  SimBackend sim(topo::Topology::paper_machine(),
                 sim::LinkCost::defaults_for(topo::Topology::paper_machine()),
                 so);
  const RunReport sim_rep = p.run(sim);

  for (const Location<long>& loc : ring.stages)
    EXPECT_EQ(real.fetch(loc), sim.fetch(loc))
        << "location " << loc.id() << " diverged between backends";

  // Both backends account one grant per declared access per iteration.
  EXPECT_EQ(real_rep.grants, sim_rep.grants);

  // The prediction is a real, positive duration with the sync component of
  // the ORWL events model.
  EXPECT_GT(sim_rep.seconds, 0.0);
  EXPECT_EQ(sim_rep.backend, "sim");
  EXPECT_EQ(real_rep.backend, "runtime");
  EXPECT_TRUE(sim_rep.placed);
  EXPECT_TRUE(real_rep.placed);
}

TEST(BackendParity, SimWithoutEmulationRefusesFetch) {
  Program p;
  const Ring ring = define_ring(p, 2, 2);
  SimBackend sim(topo::Topology::flat(4));
  p.run(sim);
  EXPECT_THROW(sim.fetch(ring.stages[0]), ContractError);
}

// A run copies its runtime's metric registry into RunReport::metrics only
// while the detailed-metrics or the tracing gate is on; the registry
// itself holds the run's grant counts either way. Both backends that
// execute: the runtime and the emulating sim.
TEST(BackendParity, ReportCarriesMetricsOnlyWhileAGateIsOn) {
  const bool prev_detail = obs::enable_detailed_metrics(false);
  const bool prev_trace = obs::enable_tracing(false);
  const auto counter = [](const obs::RegistrySnapshot& snap,
                          const std::string& name) {
    for (const auto& [n, v] : snap.counters)
      if (n == name) return v;
    ADD_FAILURE() << "no counter " << name;
    return std::uint64_t{0};
  };
  const auto topo = topo::Topology::synthetic("pack:2 core:2 pu:1");
  RuntimeBackend runtime;
  SimBackend emulating(topo.clone(), sim::LinkCost::defaults_for(topo),
                       {.emulate = true});
  for (Backend* backend : {static_cast<Backend*>(&runtime),
                           static_cast<Backend*>(&emulating)}) {
    for (const std::string gate : {"none", "detailed metrics", "tracing"}) {
      SCOPED_TRACE(std::string(backend == &runtime ? "runtime" : "sim") +
                   ", gate " + gate);
      obs::enable_detailed_metrics(gate == "detailed metrics");
      // Tracing may be compiled out; its gate then stays off.
      obs::enable_tracing(gate == "tracing");
      const bool copied =
          obs::detailed_metrics_enabled() || obs::tracing_enabled();
      Program p;
      define_ring(p, 4, 10);
      const RunReport rep = p.run(*backend);
      const obs::RegistrySnapshot registry =
          backend->instrumented_runtime()->metrics().snapshot();
      EXPECT_EQ(counter(registry, "orwl.grants.read") +
                    counter(registry, "orwl.grants.write"),
                rep.grants);
      if (copied) {
        EXPECT_EQ(rep.metrics.counters, registry.counters);
        EXPECT_EQ(rep.metrics.histograms.size(), registry.histograms.size());
      } else {
        EXPECT_TRUE(rep.metrics.empty());
      }
    }
  }
  obs::enable_tracing(prev_trace);
  obs::enable_detailed_metrics(prev_detail);
}

TEST(BackendParity, Lk23ProgramMatchesBlockedReference) {
  lk23::Spec spec;
  spec.n = 64;
  spec.iterations = 4;
  spec.bx = 2;
  spec.by = 2;

  RuntimeBackend be;
  lk23::ProgramDef def;
  lk23::run_lk23_program(spec, place::Policy::TreeMatch, be, &def);
  const std::vector<double> za = lk23::fetch_field(be, def);
  const std::vector<double> ref = lk23::blocked_reference(spec);
  EXPECT_EQ(lk23::max_abs_diff(za, ref), 0.0)
      << "Program-defined LK23 must be bit-identical to the reference";
  EXPECT_EQ(def.num_tasks, 4 + 4 * 8);
}

// Identical static communication matrices (the program.h contract): the
// declaration carries the same sharing structure the runtime derives from
// the handles it was built with.
void expect_same_static_matrix(const lk23::Spec& spec, const Runtime& rt) {
  Program p;
  lk23::define_lk23_program(p, spec);
  const comm::CommMatrix ours = p.static_comm_matrix();
  const comm::CommMatrix built = rt.static_comm_matrix();
  ASSERT_EQ(ours.order(), built.order());
  EXPECT_GT(ours.total_volume(), 0.0);
  for (int i = 0; i < ours.order(); ++i)
    for (int j = 0; j < ours.order(); ++j)
      EXPECT_EQ(ours.at(i, j), built.at(i, j)) << i << ", " << j;
}

TEST(BackendParity, Lk23ProgramMatchesRuntimeBuild) {
  lk23::Spec spec;
  spec.n = 48;
  spec.iterations = 3;
  spec.bx = 3;
  spec.by = 1;

  RuntimeBackend be;
  lk23::ProgramDef def;
  const RunReport rep =
      lk23::run_lk23_program(spec, place::Policy::None, be, &def);
  const std::vector<double> za = lk23::fetch_field(be, def);

  EXPECT_EQ(lk23::max_abs_diff(za, lk23::blocked_reference(spec)), 0.0);
  // One main plus 8 frontier ops per block (paper Sec. III).
  EXPECT_EQ(def.num_tasks, 3 + 3 * 8);
  EXPECT_EQ(be.runtime().num_tasks(), def.num_tasks);

  // Exactly one grant per acquisition: Sections never renew past a task's
  // last round, so no granted request is left dangling. Mains acquire
  // their block every round (T+1) plus each halo read T times; each of the
  // 8 frontier ops per block acquires twice per round for T rounds.
  const comm::BlockGrid g = spec.grid();
  const int B = g.blocks();
  std::uint64_t expected = 0;
  for (int b = 0; b < B; ++b) {
    int neighbours = 0;
    for (int d = 0; d < comm::kAllDirs; ++d)
      if (g.neighbour(b, d) >= 0) ++neighbours;
    expected += static_cast<std::uint64_t>(spec.iterations + 1) +
                static_cast<std::uint64_t>(spec.iterations) *
                    static_cast<std::uint64_t>(neighbours);
  }
  expected += static_cast<std::uint64_t>(B) * 8u * 2u *
              static_cast<std::uint64_t>(spec.iterations);
  EXPECT_EQ(rep.grants, expected);

  expect_same_static_matrix(spec, be.runtime());
}

TEST(BackendParity, Lk23StaticMatricesAgreeAt324Tasks) {
  // 36 blocks of 9 ORWL tasks each (one main, 8 frontier ops): 324.
  lk23::Spec spec;
  spec.n = 72;
  spec.iterations = 1;
  spec.bx = 6;
  spec.by = 6;
  RuntimeBackend be;
  lk23::ProgramDef def;
  lk23::run_lk23_program(spec, place::Policy::None, be, &def);
  ASSERT_EQ(def.num_tasks, 324);
  EXPECT_EQ(lk23::max_abs_diff(lk23::fetch_field(be, def),
                               lk23::blocked_reference(spec)),
            0.0);
  expect_same_static_matrix(spec, be.runtime());
}

TEST(BackendParity, Lk23SimDerivesThePaperDecomposition) {
  // The workload SimBackend derives from the shared definition is the
  // paper's decomposition (Sec. III), exactly: per block one main op that
  // writes its block and reads each existing 8-neighbour's frontier, plus
  // eight frontier ops that each read the block and write one frontier.
  lk23::Spec spec;
  spec.n = 1536;
  spec.iterations = 50;
  spec.bx = 4;
  spec.by = 4;
  const int B = spec.bx * spec.by;
  Program p;
  lk23::define_lk23_program(p, spec);
  const sim::Workload w =
      SimBackend(topo::Topology::paper_machine()).workload(p);

  ASSERT_EQ(w.threads.size(), static_cast<std::size_t>(9 * B));
  // Rounds: the spec's sweeps plus the main ops' initialization round.
  EXPECT_EQ(w.iterations, spec.iterations + 1);
  for (int b = 0; b < B; ++b) {
    const bool x_border = b % spec.bx == 0 || b % spec.bx == spec.bx - 1;
    const bool y_border = b / spec.bx == 0 || b / spec.bx == spec.by - 1;
    const int neighbours = x_border && y_border   ? 3   // corner
                           : x_border || y_border ? 5   // edge
                                                  : 8;  // interior
    EXPECT_EQ(w.threads[static_cast<std::size_t>(b)].acquires, 1 + neighbours)
        << "main op of block " << b;
  }
  for (int f = B; f < 9 * B; ++f)
    EXPECT_EQ(w.threads[static_cast<std::size_t>(f)].acquires, 2)
        << "frontier op " << f - B;
}

}  // namespace
}  // namespace orwl
