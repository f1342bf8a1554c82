// orwl-lstopo: print a machine topology, lstopo-style, plus the NUMA node
// inventory (cpus, memory size, SLIT distances) placement and memory
// decisions are based on.
//
// Usage:
//   orwl-lstopo                      # detected host machine
//   orwl-lstopo "pack:24 core:8 pu:1"
//   orwl-lstopo --dot [spec]         # graphviz output
//   orwl-lstopo --sysfs <root> [..]  # detect from an alternate sysfs root

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "mem/numa.h"
#include "topo/sysfs.h"
#include "topo/topology.h"

namespace {

std::string fmt_bytes(long long bytes) {
  if (bytes < 0) return "?";
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  if (bytes >= (1LL << 30))
    os << static_cast<double>(bytes) / (1LL << 30) << " GiB";
  else if (bytes >= (1LL << 20))
    os << static_cast<double>(bytes) / (1LL << 20) << " MiB";
  else
    os << bytes << " B";
  return os.str();
}

/// Logical indices of the tree objects of `type` whose cpuset intersects
/// `cpus` — which packages / L3 domains a NUMA node's CPUs live under.
std::string grouping_for(const orwl::topo::Topology& topo,
                         orwl::topo::ObjType type,
                         const orwl::topo::Bitmap& cpus) {
  std::ostringstream os;
  bool any = false;
  for (int d = 0; d < topo.depth(); ++d) {
    for (const orwl::topo::Object* obj : topo.level(d)) {
      if (obj->type != type || !obj->cpuset.intersects(cpus)) continue;
      if (any) os << ',';
      os << obj->logical_index;
      any = true;
    }
  }
  return any ? os.str() : std::string();
}

/// The node inventory: memory sizes and distances are what numa_local /
/// numa_interleave placement trades off, so make them inspectable. The
/// package/L3 grouping next to each node shows how nodes map onto sockets
/// and shared caches at a glance — on most machines node == package, but
/// multi-node packages (sub-NUMA clustering) and multi-package nodes both
/// exist.
void print_numa(const orwl::mem::NumaInfo& numa,
                const orwl::topo::Topology& topo) {
  if (!numa.available()) {
    std::cout << "numa: no nodes exposed (memory policies fall back)\n";
    return;
  }
  std::cout << "numa: " << numa.num_nodes() << " node"
            << (numa.num_nodes() == 1 ? "" : "s") << '\n';
  for (const orwl::mem::NumaNode& node : numa.nodes()) {
    std::cout << "  node" << node.id << ": cpus "
              << node.cpus.to_list_string() << "  mem "
              << fmt_bytes(node.mem_bytes);
    const std::string packs =
        grouping_for(topo, orwl::topo::ObjType::Package, node.cpus);
    if (!packs.empty()) std::cout << "  package " << packs;
    const std::string l3s =
        grouping_for(topo, orwl::topo::ObjType::L3, node.cpus);
    if (!l3s.empty()) std::cout << "  l3 " << l3s;
    if (!node.distances.empty()) {
      std::cout << "  distance";
      for (const int d : node.distances) std::cout << ' ' << d;
    }
    std::cout << '\n';
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace orwl::topo;

  bool dot = false;
  std::string sysfs_root;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dot") {
      dot = true;
    } else if (arg == "--sysfs") {
      if (++i >= argc) {
        std::cerr << "orwl-lstopo: --sysfs needs a path\n";
        return 1;
      }
      sysfs_root = argv[i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: orwl-lstopo [--dot] [--sysfs <root>] "
                   "[synthetic-spec]\n";
      return 0;
    } else {
      positional.push_back(arg);
    }
  }

  Topology topo = Topology::flat(1);
  try {
    if (!positional.empty()) {
      topo = Topology::synthetic(positional.front());
    } else if (!sysfs_root.empty()) {
      auto detected = detect_from_sysfs(sysfs_root);
      if (!detected) {
        std::cerr << "orwl-lstopo: no topology under '" << sysfs_root
                  << "'\n";
        return 1;
      }
      topo = std::move(*detected);
    } else {
      topo = Topology::host();
    }
  } catch (const std::exception& e) {
    std::cerr << "orwl-lstopo: " << e.what() << '\n';
    return 1;
  }

  if (dot) {
    std::cout << topo.to_dot();
  } else {
    std::cout << "machine: " << topo.summary() << " — " << topo.num_pus()
              << " PUs, depth " << topo.depth() << '\n'
              << topo.to_string();
    // NUMA inventory comes from sysfs, so it only applies to detected
    // machines — a synthetic spec has no node directories to read.
    if (positional.empty())
      print_numa(orwl::mem::NumaInfo::detect(
                     sysfs_root.empty() ? "/sys" : sysfs_root),
                 topo);
  }
  return 0;
}
