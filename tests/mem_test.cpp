// Tests for the location-memory layer (src/mem): policy parsing, Segment
// alignment and zero-byte guarantees, bind/interleave intent + content
// preservation across migrations, Arena backend selection incl. the
// forced heap fallback, the sysfs NUMA inventory, and the policy knob
// end-to-end through Runtime, Program and both backends.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "mem/numa.h"
#include "mem/policy.h"
#include "mem/segment.h"
#include "orwl/backend.h"
#include "orwl/program.h"
#include "orwl/runtime.h"
#include "support/assert.h"
#include "topo/topology.h"
#include "workloads/workloads.h"

namespace orwl::mem {
namespace {

namespace fs = std::filesystem;

// --------------------------------------------------------------------------
// MemoryPolicy parsing.
// --------------------------------------------------------------------------

TEST(MemoryPolicyNames, ToStringParseRoundTrip) {
  for (const MemoryPolicy p : {MemoryPolicy::Heap, MemoryPolicy::NumaLocal,
                               MemoryPolicy::NumaInterleave}) {
    EXPECT_EQ(parse_memory_policy(to_string(p)), p);
  }
  EXPECT_EQ(parse_memory_policy("HEAP"), MemoryPolicy::Heap);
  EXPECT_EQ(parse_memory_policy("local"), MemoryPolicy::NumaLocal);
  EXPECT_EQ(parse_memory_policy("Interleave"), MemoryPolicy::NumaInterleave);
  try {
    (void)parse_memory_policy("pmem");
    FAIL() << "unknown policy did not throw";
  } catch (const ContractError& e) {
    // The error names the known policies so CLI typos are actionable.
    EXPECT_NE(std::string(e.what()).find("numa_local"), std::string::npos);
  }
}

// --------------------------------------------------------------------------
// Segment / Arena.
// --------------------------------------------------------------------------

bool aligned_to(const void* p, std::size_t a) {
  return reinterpret_cast<std::uintptr_t>(p) % a == 0;
}

TEST(Segment, HeapBackingIsAlignedAndZeroed) {
  const Arena arena;  // default: heap
  const Segment seg = arena.allocate(1000);
  ASSERT_EQ(seg.size(), 1000u);
  EXPECT_EQ(seg.backing(), Segment::Backing::Heap);
  EXPECT_TRUE(aligned_to(seg.bytes().data(), kSegmentAlignment));
  for (const std::byte b : seg.bytes()) EXPECT_EQ(b, std::byte{0});
  EXPECT_EQ(seg.target_node(), -1);
  EXPECT_FALSE(seg.interleaved());
}

TEST(Segment, NumaArenaIsAlignedAndZeroedOnAnyHost) {
  // With the syscalls available this is an mmap (page-aligned); on hosts
  // without them it falls back to the heap — both satisfy the guarantees.
  const Arena arena({.policy = MemoryPolicy::NumaLocal});
  const Segment seg = arena.allocate(3 * page_size() + 17);
  ASSERT_EQ(seg.size(), 3 * page_size() + 17);
  EXPECT_TRUE(aligned_to(seg.bytes().data(), kSegmentAlignment));
  if (arena.numa_backed()) {
    EXPECT_EQ(seg.backing(), Segment::Backing::Mmap);
    EXPECT_TRUE(aligned_to(seg.bytes().data(), page_size()));
  } else {
    EXPECT_EQ(seg.backing(), Segment::Backing::Heap);
  }
  for (const std::byte b : seg.bytes()) EXPECT_EQ(b, std::byte{0});
}

TEST(Segment, ZeroByteSegmentIsEmptyAndPlacementIsVacuous) {
  for (const MemoryPolicy p :
       {MemoryPolicy::Heap, MemoryPolicy::NumaLocal}) {
    const Arena arena({.policy = p});
    Segment seg = arena.allocate(0);
    EXPECT_EQ(seg.size(), 0u);
    EXPECT_EQ(seg.backing(), Segment::Backing::None);
    EXPECT_TRUE(seg.bytes().empty());
    // Pure synchronization locations have no pages: binding trivially
    // succeeds and still records the intent.
    EXPECT_TRUE(seg.bind_to_node(0));
    EXPECT_EQ(seg.target_node(), 0);
    EXPECT_TRUE(seg.interleave({0}));
    EXPECT_TRUE(seg.interleaved());
  }
}

TEST(Segment, MigrationRoundTripPreservesContents) {
  const Arena arena({.policy = MemoryPolicy::NumaLocal});
  Segment seg = arena.allocate(4 * page_size());
  auto bytes = seg.bytes();
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::byte>(i * 31 % 251);

  const NumaInfo& numa = NumaInfo::host();
  const int a = numa.available() ? numa.nodes().front().id : 0;
  const int b = numa.available() ? numa.nodes().back().id : 0;
  seg.bind_to_node(a);
  EXPECT_EQ(seg.target_node(), a);
  seg.bind_to_node(b);  // a != b on multi-node hosts; same-node otherwise
  seg.bind_to_node(a);
  EXPECT_EQ(seg.target_node(), a);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    ASSERT_EQ(bytes[i], static_cast<std::byte>(i * 31 % 251)) << "byte " << i;
  if (arena.numa_backed() && seg.physically_placed()) {
    // The kernel accepted the preference; a touched first page should
    // report a node (exact id is advisory under MPOL_PREFERRED).
    EXPECT_TRUE(page_node_of(bytes.data()).has_value());
  }
}

TEST(Segment, MoveTransfersOwnershipAndIntent) {
  const Arena arena({.policy = MemoryPolicy::Heap});
  Segment a = arena.allocate(128);
  a.bytes()[7] = std::byte{42};
  a.bind_to_node(3);
  Segment b = std::move(a);
  EXPECT_EQ(b.size(), 128u);
  EXPECT_EQ(b.bytes()[7], std::byte{42});
  EXPECT_EQ(b.target_node(), 3);
  EXPECT_EQ(a.size(), 0u);                           // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.backing(), Segment::Backing::None);    // NOLINT(bugprone-use-after-move)
}

TEST(Segment, DeferredHeapFillRunsOnceOnRequest) {
  const Arena arena;  // heap
  const Segment now = arena.allocate(1000);
  EXPECT_FALSE(now.zero_pending());

  Segment seg = arena.allocate(1000, ZeroFill::Deferred);
  ASSERT_EQ(seg.size(), 1000u);
  EXPECT_EQ(seg.backing(), Segment::Backing::Heap);
  EXPECT_TRUE(aligned_to(seg.bytes().data(), kSegmentAlignment));
  EXPECT_TRUE(seg.zero_pending());
  // The holder owns the unwritten bytes until the fill: make them dirty so
  // the fill has something to do.
  std::memset(seg.bytes().data(), 0xa5, seg.size());
  Segment moved = std::move(seg);  // the pending fill travels with the bytes
  EXPECT_FALSE(seg.zero_pending());  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(moved.zero_pending());
  moved.zero_if_pending();
  EXPECT_FALSE(moved.zero_pending());
  for (const std::byte b : moved.bytes()) ASSERT_EQ(b, std::byte{0});
  moved.bytes()[3] = std::byte{42};
  moved.zero_if_pending();  // filled already: a no-op
  EXPECT_EQ(moved.bytes()[3], std::byte{42});

  const Segment empty = arena.allocate(0, ZeroFill::Deferred);
  EXPECT_FALSE(empty.zero_pending());
}

TEST(Segment, DeferredFillOnNumaArenasPendsOnlyOnTheHeapFallback) {
  for (const MemoryPolicy p :
       {MemoryPolicy::NumaLocal, MemoryPolicy::NumaInterleave}) {
    for (const bool fallback : {false, true}) {
      const Arena arena({.policy = p, .force_fallback = fallback});
      Segment seg = arena.allocate(2 * page_size() + 5, ZeroFill::Deferred);
      // mmap pages are zero on first touch: nothing to defer.
      EXPECT_EQ(seg.zero_pending(), !arena.numa_backed());
      seg.zero_if_pending();
      EXPECT_FALSE(seg.zero_pending());
      for (const std::byte b : seg.bytes()) ASSERT_EQ(b, std::byte{0});
    }
  }
}

TEST(Arena, ForcedFallbackAlwaysUsesHeapButKeepsIntent) {
  const Arena arena(
      {.policy = MemoryPolicy::NumaLocal, .force_fallback = true});
  EXPECT_FALSE(arena.numa_backed());
  Segment seg = arena.allocate(page_size());
  EXPECT_EQ(seg.backing(), Segment::Backing::Heap);
  // Page ops degrade to intent-recording: the policy stays observable
  // even where the kernel cannot move anything.
  EXPECT_FALSE(seg.bind_to_node(1));
  EXPECT_EQ(seg.target_node(), 1);
  EXPECT_FALSE(seg.physically_placed());
}

// --------------------------------------------------------------------------
// NumaInfo.
// --------------------------------------------------------------------------

class NumaSysfsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("orwl_mem_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "devices/system/node");
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << content;
  }

  fs::path root_;
};

TEST_F(NumaSysfsFixture, DetectParsesCpusMemoryAndDistances) {
  write("devices/system/node/node0/cpulist", "0-3\n");
  write("devices/system/node/node0/meminfo",
        "Node 0 MemTotal:       16777216 kB\n"
        "Node 0 MemFree:         8388608 kB\n");
  write("devices/system/node/node0/distance", "10 21\n");
  write("devices/system/node/node1/cpulist", "4-7\n");
  write("devices/system/node/node1/meminfo",
        "Node 1 MemTotal:       8388608 kB\n");
  write("devices/system/node/node1/distance", "21 10\n");

  const NumaInfo info = NumaInfo::detect(root_.string());
  ASSERT_TRUE(info.available());
  ASSERT_EQ(info.num_nodes(), 2);
  EXPECT_EQ(info.nodes()[0].id, 0);
  EXPECT_EQ(info.nodes()[0].cpus.to_list_string(), "0-3");
  EXPECT_EQ(info.nodes()[0].mem_bytes, 16777216LL * 1024);
  EXPECT_EQ(info.nodes()[0].distances, (std::vector<int>{10, 21}));
  EXPECT_EQ(info.nodes()[1].mem_bytes, 8388608LL * 1024);
  EXPECT_EQ(info.node_of_cpu(2), 0);
  EXPECT_EQ(info.node_of_cpu(5), 1);
  EXPECT_EQ(info.node_of_cpu(64), -1);
  EXPECT_EQ(info.node_ids(), (std::vector<int>{0, 1}));
}

TEST_F(NumaSysfsFixture, EmptyTreeIsUnavailable) {
  const NumaInfo info = NumaInfo::detect(root_.string());
  EXPECT_FALSE(info.available());
  EXPECT_EQ(info.node_of_cpu(0), -1);
}

TEST(NumaInfoSynthetic, FromNodeCpus) {
  const NumaInfo info = NumaInfo::from_node_cpus(
      {topo::Bitmap::range(0, 1), topo::Bitmap::range(2, 3)});
  ASSERT_EQ(info.num_nodes(), 2);
  EXPECT_EQ(info.node_of_cpu(1), 0);
  EXPECT_EQ(info.node_of_cpu(3), 1);
}

// --------------------------------------------------------------------------
// Runtime / Program / backend plumbing.
// --------------------------------------------------------------------------

TEST(RuntimeMemory, LocationStorageComesFromTheArena) {
  RuntimeOptions opts;
  opts.memory = MemoryPolicy::NumaLocal;
  Runtime rt(opts);
  const LocationId data = rt.add_location(4096, "data");
  const LocationId sync_only = rt.add_location(0, "sync");
  EXPECT_EQ(rt.memory_policy(), MemoryPolicy::NumaLocal);
  EXPECT_EQ(rt.location_storage(data).size(), 4096u);
  EXPECT_EQ(rt.location_storage(sync_only).size(), 0u);
  EXPECT_EQ(rt.location_node(data), -1);  // no placement applied yet
  // Zero-initialized regardless of backing.
  for (const std::byte b : rt.location_data(data))
    ASSERT_EQ(b, std::byte{0});
}

TEST(RuntimeMemory, InterleavePolicySpreadsOncePerLocation) {
  RuntimeOptions opts;
  opts.memory = MemoryPolicy::NumaInterleave;
  Runtime rt(opts);
  rt.add_location(4096, "a");
  rt.add_location(4096, "b");
  rt.add_location(0, "sync");
  const auto topo = topo::Topology::synthetic("pack:2 pu:1");
  const NumaInfo numa = NumaInfo::from_node_cpus(
      {topo::Bitmap::single(0), topo::Bitmap::single(1)});
  // Both data locations get interleaved; the empty one has no pages.
  EXPECT_EQ(rt.place_location_memory({0, 1}, topo, &numa), 2);
  EXPECT_TRUE(rt.location_storage(0).interleaved());
  // Re-applying (an epoch re-placement) finds nothing left to do.
  EXPECT_EQ(rt.place_location_memory({1, 0}, topo, &numa), 0);
}

TEST(ProgramMemory, PolicyKnobTravelsToTheRuntime) {
  Program p;
  auto a = p.location<long>(8, "a");
  p.task("t").writes(a).iterations(2).body([a](Step& s) {
    s.write(a, [&](std::span<long> x) { x[0] += 1; });
  });
  EXPECT_FALSE(p.memory_policy().has_value());
  p.memory_policy(MemoryPolicy::NumaLocal);
  ASSERT_TRUE(p.memory_policy().has_value());
  RuntimeBackend backend;
  const RunReport rep = p.run(backend);
  EXPECT_GT(rep.grants, 0u);
  EXPECT_EQ(backend.runtime().memory_policy(), MemoryPolicy::NumaLocal);
  EXPECT_EQ(backend.fetch(a)[0], 2);
}

TEST(ProgramMemory, InterleaveAppliesEvenWithoutAPlacementPolicy) {
  // numa_interleave needs no task mapping, so an unplaced program must
  // still interleave its real pages (the sim models it unconditionally —
  // the backends may not diverge here).
  Program p;
  auto a = p.location<long>(1024, "a");
  p.task("t").writes(a).iterations(1).body([a](Step& s) {
    s.write(a, [](std::span<long> x) { x[0] = 1; });
  });
  p.memory_policy(MemoryPolicy::NumaInterleave);
  RuntimeBackend backend;
  p.run(backend);
  if (NumaInfo::host().available()) {
    EXPECT_TRUE(backend.runtime().location_storage(a.id()).interleaved());
  }
  EXPECT_EQ(backend.fetch(a)[0], 1);
}

TEST(ProgramMemory, NumaLocalRunsEndToEndOnAnyHostViaTheFallback) {
  // The acceptance path: --memory-policy numa_local on a host that may
  // have no NUMA nodes (or filtered syscalls) must run and verify — the
  // Arena degrades to the heap and the page ops to intent recording.
  for (const MemoryPolicy mp :
       {MemoryPolicy::NumaLocal, MemoryPolicy::NumaInterleave}) {
    Program p;
    const workloads::Built built = workloads::get("stencil2d")
        .build(p, {.tasks = 4, .size = 16, .iterations = 3});
    p.place(place::Policy::TreeMatch);
    p.memory_policy(mp);
    RuntimeBackend backend;
    const RunReport rep = p.run(backend);
    EXPECT_TRUE(rep.placed);
    std::string why;
    EXPECT_TRUE(built.verify(backend, why)) << to_string(mp) << ": " << why;
  }
}

TEST(ProgramMemory, InitHooksApplyOnTopOfTheZeroFill) {
  for (const MemoryPolicy mp : {MemoryPolicy::Heap, MemoryPolicy::NumaLocal,
                                MemoryPolicy::NumaInterleave}) {
    SCOPED_TRACE(to_string(mp));
    Program p;
    auto init = p.location<long>(512, "init");
    auto fresh = p.location<long>(512, "fresh");
    auto out = p.location<long>(2, "out");
    p.init(init, [](std::span<long> x) { x[3] = 5; });
    p.task("t").reads(init).reads(fresh).writes(out).iterations(1).body(
        [init, fresh, out](Step& s) {
          long sum = 0;
          s.read(init, [&](std::span<const long> x) {
            for (const long v : x) sum += v;
          });
          long fresh_sum = 0;
          s.read(fresh, [&](std::span<const long> x) {
            for (const long v : x) fresh_sum += v != 0;
          });
          s.write(out, [&](std::span<long> x) {
            x[0] = sum;
            x[1] = fresh_sum;
          });
        });
    p.memory_policy(mp);
    RuntimeBackend backend;
    p.run(backend);
    EXPECT_EQ(backend.fetch(out)[0], 5);  // the hook's 5, on zeros
    EXPECT_EQ(backend.fetch(out)[1], 0);
    EXPECT_EQ(backend.fetch(init)[3], 5);
  }
}

// --------------------------------------------------------------------------
// Sim model: heap unchanged, interleave distinct.
// --------------------------------------------------------------------------

double sim_seconds(const std::optional<MemoryPolicy>& mp) {
  Program p;
  workloads::get("stencil2d")
      .build(p, {.tasks = 16, .size = 256, .iterations = 8});
  p.place(place::Policy::TreeMatch);
  if (mp) p.memory_policy(*mp);
  SimBackend backend(topo::Topology::paper_machine());
  return p.run(backend).seconds;
}

TEST(SimMemoryModel, ExplicitHeapPredictsExactlyLikeTheDefault) {
  EXPECT_EQ(sim_seconds(std::nullopt), sim_seconds(MemoryPolicy::Heap));
}

TEST(SimMemoryModel, InterleaveChangesTheMemoryTerm) {
  // Interleaved pages stream at the blended bandwidth instead of the
  // local one — a well-placed stencil predicts slower under interleave.
  const double heap = sim_seconds(MemoryPolicy::Heap);
  const double interleave = sim_seconds(MemoryPolicy::NumaInterleave);
  EXPECT_NE(heap, interleave);
  EXPECT_GT(interleave, heap);
}

}  // namespace
}  // namespace orwl::mem
