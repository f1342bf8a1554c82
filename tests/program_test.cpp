// Tests for the typed Program front-end: typed locations, the fluent task
// builder, RAII section guards with last-iteration release semantics,
// priming ranks, and the const acquire path on Handle.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "orwl/backend.h"
#include "orwl/program.h"

namespace orwl {
namespace {

TEST(Program, TypedLocationGeometry) {
  Program p;
  const Location<long> a = p.location<long>(4, "a");
  EXPECT_EQ(a.id(), 0);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.bytes(), 4 * sizeof(long));
  EXPECT_TRUE(a.valid());
  EXPECT_FALSE(Location<long>().valid());
  EXPECT_EQ(p.num_locations(), 1);
  EXPECT_EQ(p.location_decls()[0].name, "a");
  EXPECT_EQ(p.location_decls()[0].bytes, 4 * sizeof(long));
}

TEST(Program, SingleTaskWritesTypedSpan) {
  Program p;
  const Location<int> loc = p.location<int>(3);
  p.task("writer").writes(loc).body([loc](Step& s) {
    s.write(loc, [](std::span<int> v) {
      std::iota(v.begin(), v.end(), 7);
    });
  });
  RuntimeBackend be;
  const RunReport rep = p.run(be);
  EXPECT_EQ(rep.backend, "runtime");
  EXPECT_FALSE(rep.placed);
  EXPECT_EQ(be.fetch(loc), (std::vector<int>{7, 8, 9}));
}

TEST(Program, InitHookRunsBeforeTasks) {
  Program p;
  const Location<double> loc = p.location<double>(2);
  p.init(loc, [](std::span<double> v) { v[0] = 1.5; v[1] = 2.5; });
  double seen0 = 0.0;
  p.task("reader").reads(loc).body([loc, &seen0](Step& s) {
    seen0 = s.read(loc, [](std::span<const double> v) { return v[0] + v[1]; });
  });
  RuntimeBackend be;
  p.run(be);
  EXPECT_EQ(seen0, 4.0);
}

TEST(Program, AutoRenewAlternationMatchesManualDiscipline) {
  // Two writer tasks on one counter: sections renew on every iteration but
  // the last, so the FIFO alternation of the classic manual version must
  // reproduce exactly (a sees 0,2,4,... / b sees 1,3,5,...).
  constexpr int kIters = 25;
  Program p;
  const Location<long> counter = p.location<long>(1);
  std::vector<long> seen_a, seen_b;
  p.task("a").writes(counter).iterations(kIters).body(
      [counter, &seen_a](Step& s) {
        s.write(counter, [&](std::span<long> v) {
          seen_a.push_back(v[0]);
          v[0] += 1;
        });
      });
  p.task("b").writes(counter).iterations(kIters).body(
      [counter, &seen_b](Step& s) {
        s.write(counter, [&](std::span<long> v) {
          seen_b.push_back(v[0]);
          v[0] += 1;
        });
      });
  RuntimeBackend be;
  const RunReport rep = p.run(be);
  ASSERT_EQ(seen_a.size(), static_cast<std::size_t>(kIters));
  ASSERT_EQ(seen_b.size(), static_cast<std::size_t>(kIters));
  for (int i = 0; i < kIters; ++i) {
    EXPECT_EQ(seen_a[static_cast<std::size_t>(i)], 2 * i);
    EXPECT_EQ(seen_b[static_cast<std::size_t>(i)], 2 * i + 1);
  }
  EXPECT_EQ(be.fetch(counter)[0], 2L * kIters);
  // Exactly one grant per iteration per task: renewals stopped on the last
  // iteration, no dangling request needed draining.
  EXPECT_EQ(rep.grants, static_cast<std::uint64_t>(2 * kIters));
}

TEST(Program, DeclaredButUnusedHandleIsDrained) {
  // A task declares a location it never touches; the runtime primes the
  // request, so the backend must drain it or the co-writer behind it in
  // the FIFO would deadlock.
  Program p;
  const Location<long> loc = p.location<long>(1);
  p.task("lazy").writes(loc).body([](Step&) {});
  p.task("eager").writes(loc).body([loc](Step& s) {
    s.write(loc, [](std::span<long> v) { v[0] = 42; });
  });
  RuntimeBackend be;
  p.run(be);
  EXPECT_EQ(be.fetch(loc)[0], 42);
}

TEST(Program, LastIterationReleasesWithoutRenew) {
  // One task, N iterations on its own location: N grants total means the
  // last section released instead of renewing (a renewal would leave an
  // N+1-th request to drain).
  constexpr int kIters = 9;
  Program p;
  const Location<long> loc = p.location<long>(1);
  p.task("t").writes(loc).iterations(kIters).body([loc](Step& s) {
    EXPECT_EQ(s.last(), s.round() + 1 == kIters);
    s.write(loc, [&](std::span<long> v) { v[0] += 1; });
  });
  RuntimeBackend be;
  const RunReport rep = p.run(be);
  EXPECT_EQ(be.fetch(loc)[0], kIters);
  EXPECT_EQ(rep.grants, static_cast<std::uint64_t>(kIters));
}

TEST(Program, UndeclaredAccessThrows) {
  Program p;
  const Location<long> a = p.location<long>(1);
  const Location<long> b = p.location<long>(1);
  p.task("t").writes(a).body([b](Step& s) {
    s.write(b, [](std::span<long>) {});  // never declared
  });
  RuntimeBackend be;
  EXPECT_THROW(p.run(be), ContractError);
}

TEST(Program, WrongModeAccessThrows) {
  Program p;
  const Location<long> a = p.location<long>(1);
  p.task("t").reads(a).body([a](Step& s) {
    s.write(a, [](std::span<long>) {});  // declared read, asked for write
  });
  RuntimeBackend be;
  EXPECT_THROW(p.run(be), ContractError);
}

TEST(Program, BuilderRejectsDuplicateAndBogusDeclarations) {
  Program p;
  const Location<long> a = p.location<long>(1);
  TaskBuilder t = p.task("t");
  t.reads(a);
  EXPECT_THROW(t.reads(a), ContractError);
  EXPECT_NO_THROW(t.writes(a));  // same location, different mode is fine
  EXPECT_THROW(t.iterations(-1), ContractError);
  EXPECT_THROW(t.reads(Location<long>()), ContractError);
  EXPECT_THROW(t.body(nullptr), ContractError);
}

TEST(Program, RunWithoutBodyThrows) {
  Program p;
  const Location<long> a = p.location<long>(1);
  p.task("structural").writes(a);  // no body: fine for analysis only
  EXPECT_NO_THROW(p.static_comm_matrix());
  RuntimeBackend be;
  EXPECT_THROW(p.run(be), ContractError);
}

TEST(Program, StaticCommMatrixMatchesRuntimeRule) {
  Program p;
  const Location<std::byte> big = p.location<std::byte>(1000);
  const Location<std::byte> small = p.location<std::byte>(10);
  p.task("t0").writes(big);
  p.task("t1").reads(big).writes(small);
  p.task("t2").reads(small);
  const comm::CommMatrix m = p.static_comm_matrix();
  EXPECT_EQ(m.order(), 3);
  EXPECT_EQ(m.at(0, 1), 1000.0);
  EXPECT_EQ(m.at(1, 2), 10.0);
  EXPECT_EQ(m.at(0, 2), 0.0);
}

TEST(Program, PrimingRanksControlFirstGrant) {
  // The reader is *declared* first but ranked after the writer, so the
  // writer's request is primed first and the reader observes the product.
  Program p;
  const Location<int> loc = p.location<int>(1);
  int seen = -1;
  p.task("consumer").reads(loc, {.rank = 1}).body([loc, &seen](Step& s) {
    seen = s.read(loc, [](std::span<const int> v) { return v[0]; });
  });
  p.task("producer").writes(loc, {.rank = 0}).body([loc](Step& s) {
    s.write(loc, [](std::span<int> v) { v[0] = 7; });
  });
  RuntimeBackend be;
  p.run(be);
  EXPECT_EQ(seen, 7);
}

TEST(Program, DefaultPrimingIsDeclarationOrder) {
  // Same program without ranks: the reader is primed first and sees the
  // zero-initialized buffer.
  Program p;
  const Location<int> loc = p.location<int>(1);
  int seen = -1;
  p.task("consumer").reads(loc).body([loc, &seen](Step& s) {
    seen = s.read(loc, [](std::span<const int> v) { return v[0]; });
  });
  p.task("producer").writes(loc).body([loc](Step& s) {
    s.write(loc, [](std::span<int> v) { v[0] = 7; });
  });
  RuntimeBackend be;
  p.run(be);
  EXPECT_EQ(seen, 0);
}

TEST(Program, SectionSpanFormsAndMoves) {
  Program p;
  const Location<int> loc = p.location<int>(4);
  p.task("t").writes(loc).body([loc](Step& s) {
    Section<int> sec = s.write(loc);
    EXPECT_EQ(sec.size(), 4u);
    sec[0] = 1;
    std::span<int> as_plain_span = sec;
    as_plain_span[1] = 2;
    *(sec.begin() + 2) = 3;
    Section<int> moved = std::move(sec);  // moved-from dtor must be a no-op
    moved[3] = 4;
  });
  RuntimeBackend be;
  p.run(be);
  EXPECT_EQ(be.fetch(loc), (std::vector<int>{1, 2, 3, 4}));
}

TEST(Handle, ConstAcquirePath) {
  // The quickstart wart: a Read handle had to convert the mutable byte
  // span manually before as_span<const T>. acquire_const() is the direct
  // const path.
  Runtime rt;
  const LocationId loc = rt.add_location(sizeof(long));
  const TaskId w = rt.add_task("w", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    auto bytes = h.acquire();
    as_span<long>(bytes)[0] = 11;
    h.release();
  });
  long seen = 0;
  const TaskId r = rt.add_task("r", [&seen](TaskContext& ctx) {
    Handle& h = ctx.handle(1);
    const std::span<const std::byte> bytes = h.acquire_const();
    seen = as_span<const long>(bytes)[0];
    h.release();
  });
  rt.add_handle(w, loc, AccessMode::Write);
  rt.add_handle(r, loc, AccessMode::Read);
  rt.run();
  EXPECT_EQ(seen, 11);
}

TEST(Program, PlacePopulatesPlan) {
  Program p;
  const Location<long> a = p.location<long>(64);
  p.task("t0").writes(a).body([a](Step& s) {
    s.write(a, [](std::span<long>) {});
  });
  p.task("t1").reads(a).body([a](Step& s) {
    s.read(a, [](std::span<const long>) {});
  });
  p.place(place::Policy::Compact);
  RuntimeBackend be;
  const RunReport rep = p.run(be);
  EXPECT_TRUE(rep.placed);
  ASSERT_EQ(rep.plan.compute_pu.size(), 2u);
  EXPECT_GE(rep.plan.compute_pu[0], 0);
}

}  // namespace
}  // namespace orwl
