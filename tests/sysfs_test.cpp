// Tests for the Linux sysfs topology detector, using a fabricated sysfs
// tree on disk (the detector takes the root path as a parameter).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "topo/binding.h"
#include "topo/sysfs.h"

namespace orwl::topo {
namespace {

namespace fs = std::filesystem;

class SysfsFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("orwl_sysfs_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(root_);
    fs::create_directories(root_ / "devices/system/cpu");
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const fs::path& rel, const std::string& content) {
    const fs::path p = root_ / rel;
    fs::create_directories(p.parent_path());
    std::ofstream out(p);
    out << content;
  }

  void add_cpu(int cpu, int pack, int core) {
    const std::string base =
        "devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
    write(base + "physical_package_id", std::to_string(pack) + "\n");
    write(base + "core_id", std::to_string(core) + "\n");
  }

  fs::path root_;
};

TEST_F(SysfsFixture, MissingOnlineFileFails) {
  EXPECT_FALSE(detect_from_sysfs(root_.string()).has_value());
}

TEST_F(SysfsFixture, TwoPackagesTwoCoresSmt) {
  write("devices/system/cpu/online", "0-7\n");
  // pack 0: cores 0,1 with 2 SMT threads each; pack 1 likewise.
  add_cpu(0, 0, 0);
  add_cpu(1, 0, 0);
  add_cpu(2, 0, 1);
  add_cpu(3, 0, 1);
  add_cpu(4, 1, 0);
  add_cpu(5, 1, 0);
  add_cpu(6, 1, 1);
  add_cpu(7, 1, 1);
  const auto topo = detect_from_sysfs(root_.string());
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->num_pus(), 8);
  EXPECT_EQ(topo->depth(), 4);  // machine/pack/core/pu
  EXPECT_EQ(topo->level(1).size(), 2u);
  EXPECT_EQ(topo->level(2).size(), 4u);
  EXPECT_TRUE(topo->is_balanced());
  // SMT siblings share a core.
  EXPECT_EQ(topo->pu_by_os(0)->parent, topo->pu_by_os(1)->parent);
  EXPECT_NE(topo->pu_by_os(1)->parent, topo->pu_by_os(2)->parent);
}

TEST_F(SysfsFixture, NumaNodesInsertLevel) {
  write("devices/system/cpu/online", "0-3\n");
  add_cpu(0, 0, 0);
  add_cpu(1, 0, 1);
  add_cpu(2, 0, 2);
  add_cpu(3, 0, 3);
  write("devices/system/node/node0/cpulist", "0-1\n");
  write("devices/system/node/node1/cpulist", "2-3\n");
  const auto topo = detect_from_sysfs(root_.string());
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->depth(), 5);  // machine/pack/numa/core/pu
  EXPECT_EQ(topo->level(2).size(), 2u);
  EXPECT_EQ(topo->level(2)[0]->type, ObjType::NUMANode);
  EXPECT_EQ(topo->level(2)[0]->cpuset.to_list_string(), "0-1");
  EXPECT_EQ(topo->level(2)[1]->cpuset.to_list_string(), "2-3");
}

TEST_F(SysfsFixture, SparseOnlineMaskRespected) {
  write("devices/system/cpu/online", "0,2\n");
  add_cpu(0, 0, 0);
  add_cpu(1, 0, 1);  // present in tree but offline
  add_cpu(2, 0, 2);
  const auto topo = detect_from_sysfs(root_.string());
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->num_pus(), 2);
  EXPECT_NE(topo->pu_by_os(0), nullptr);
  EXPECT_EQ(topo->pu_by_os(1), nullptr);
  EXPECT_NE(topo->pu_by_os(2), nullptr);
}

TEST_F(SysfsFixture, AffinityMaskDropsCpusAndEmptyLevels) {
  // Two packages, one NUMA node each, two SMT cores per package.
  write("devices/system/cpu/online", "0-7\n");
  for (int cpu = 0; cpu < 8; ++cpu) add_cpu(cpu, cpu / 4, cpu % 4 / 2);
  write("devices/system/node/node0/cpulist", "0-3\n");
  write("devices/system/node/node1/cpulist", "4-7\n");

  // A mask inside one package keeps one package, node and core.
  auto topo = detect_from_sysfs(root_.string(), Bitmap::parse_list("6-7"));
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->num_pus(), 2);
  ASSERT_EQ(topo->depth(), 5);  // machine/pack/numa/core/pu
  EXPECT_EQ(topo->level(1).size(), 1u);
  ASSERT_EQ(topo->level(2).size(), 1u);
  EXPECT_EQ(topo->level(2)[0]->os_index, 1);  // the OS node id survives
  EXPECT_EQ(topo->level(3).size(), 1u);
  EXPECT_EQ(topo->pu_by_os(5), nullptr);
  EXPECT_NE(topo->pu_by_os(6), nullptr);

  // Across packages: each keeps only the cores the mask touches.
  topo = detect_from_sysfs(root_.string(), Bitmap::parse_list("0-1,4"));
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->num_pus(), 3);
  EXPECT_EQ(topo->level(1).size(), 2u);
  EXPECT_EQ(topo->level(3).size(), 2u);
  EXPECT_EQ(topo->pu_by_os(4)->parent->children.size(), 1u);
  EXPECT_EQ(topo->pu_by_os(2), nullptr);

  // A mask naming no online CPU, or none at all, keeps every CPU.
  topo = detect_from_sysfs(root_.string(), Bitmap::parse_list("8-9"));
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->num_pus(), 8);
  topo = detect_from_sysfs(root_.string(), std::nullopt);
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->num_pus(), 8);
}

TEST(HostTopology, FollowsTheCallingThreadsAffinity) {
  if (!detect_from_sysfs("/sys").has_value())
    GTEST_SKIP() << "no usable /sys topology";
  const std::optional<Bitmap> mask = current_thread_binding();
  if (!mask) GTEST_SKIP() << "affinity mask not readable";
  const int full = Topology::host().num_pus();
  EXPECT_EQ(full, mask->count());
  const int cpu = mask->first();
  {
    const ScopedBinding narrowed(Bitmap::single(cpu));
    ASSERT_TRUE(narrowed.bound());
    const Topology one = Topology::host();
    ASSERT_EQ(one.num_pus(), 1);
    EXPECT_EQ(one.pus()[0]->os_index, cpu);
  }
  EXPECT_EQ(current_thread_binding(), mask);  // restored
  EXPECT_EQ(Topology::host().num_pus(), full);
}

TEST_F(SysfsFixture, SiblingMaskFallback) {
  // Only package_cpus/core_cpus hex masks, like stripped-down VMs:
  // one package, 2 cores with 2 SMT threads each.
  write("devices/system/cpu/online", "0-3\n");
  for (int cpu = 0; cpu < 4; ++cpu) {
    const std::string base =
        "devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
    write(base + "package_cpus", "f\n");
    write(base + "core_cpus", cpu < 2 ? "3\n" : "c\n");
  }
  const auto topo = detect_from_sysfs(root_.string());
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->depth(), 4);
  EXPECT_EQ(topo->level(1).size(), 1u);  // one package
  EXPECT_EQ(topo->level(2).size(), 2u);  // two cores
  EXPECT_EQ(topo->pu_by_os(0)->parent, topo->pu_by_os(1)->parent);
  EXPECT_NE(topo->pu_by_os(1)->parent, topo->pu_by_os(2)->parent);
}

TEST_F(SysfsFixture, LegacySiblingNames) {
  // Old kernels: core_siblings (package mask) + thread_siblings (core).
  write("devices/system/cpu/online", "0-1\n");
  for (int cpu = 0; cpu < 2; ++cpu) {
    const std::string base =
        "devices/system/cpu/cpu" + std::to_string(cpu) + "/topology/";
    write(base + "core_siblings", "3\n");
    write(base + "thread_siblings",
          cpu == 0 ? std::string("1\n") : std::string("2\n"));
  }
  const auto topo = detect_from_sysfs(root_.string());
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(topo->level(1).size(), 1u);
  EXPECT_EQ(topo->level(2).size(), 2u);  // two single-thread cores
}

TEST_F(SysfsFixture, NoTopologyFilesFails) {
  write("devices/system/cpu/online", "0-3\n");
  // No per-cpu topology directories, no NUMA info: nothing to build from.
  EXPECT_FALSE(detect_from_sysfs(root_.string()).has_value());
}

TEST_F(SysfsFixture, GarbageOnlineFileFails) {
  write("devices/system/cpu/online", "not-a-cpulist\n");
  EXPECT_FALSE(detect_from_sysfs(root_.string()).has_value());
}

TEST_F(SysfsFixture, RealSysfsIfPresent) {
  // On Linux CI machines /sys usually exists; the call must either fail
  // cleanly or produce a sane topology.
  const auto topo = detect_from_sysfs("/sys");
  if (topo.has_value()) {
    EXPECT_GE(topo->num_pus(), 1);
    EXPECT_GE(topo->depth(), 2);
  }
}

}  // namespace
}  // namespace orwl::topo
