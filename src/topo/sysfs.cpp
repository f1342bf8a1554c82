#include "topo/sysfs.h"

#include <filesystem>
#include <map>

#include "support/assert.h"
#include "support/file.h"
#include "support/log.h"

namespace orwl::topo {

namespace {

std::optional<int> read_int(const std::filesystem::path& p) {
  const auto s = read_file_trimmed(p);
  if (!s) return std::nullopt;
  try {
    return std::stoi(*s);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

std::optional<Topology> detect_from_sysfs(
    const std::string& sysfs_root, const std::optional<Bitmap>& allowed) {
  namespace fs = std::filesystem;
  const fs::path cpu_dir = fs::path(sysfs_root) / "devices/system/cpu";

  const auto online_str = read_file_trimmed(cpu_dir / "online");
  if (!online_str) return std::nullopt;
  Bitmap online;
  try {
    online = Bitmap::parse_list(*online_str);
  } catch (const std::exception&) {
    return std::nullopt;
  }
  if (online.empty()) return std::nullopt;
  if (allowed && online.intersects(*allowed)) online &= *allowed;

  // NUMA node of each cpu (optional).
  std::map<int, int> cpu_numa;  // os cpu -> node id
  const fs::path node_dir = fs::path(sysfs_root) / "devices/system/node";
  std::error_code ec;
  if (fs::is_directory(node_dir, ec)) {
    for (const auto& entry : fs::directory_iterator(node_dir, ec)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("node", 0) != 0) continue;
      int node_id = -1;
      try {
        node_id = std::stoi(name.substr(4));
      } catch (const std::exception&) {
        continue;
      }
      if (const auto list = read_file_trimmed(entry.path() / "cpulist")) {
        try {
          for (int cpu : Bitmap::parse_list(*list).to_vector())
            cpu_numa[cpu] = node_id;
        } catch (const std::exception&) {
          // Malformed node cpulist: ignore NUMA info for this node.
        }
      }
    }
  }

  // Sibling-mask fallback: newer kernels (and stripped-down VMs) may only
  // expose package_cpus/core_cpus (or the legacy core_siblings/
  // thread_siblings) hex masks instead of the id files. Identify packages
  // and cores by their distinct masks.
  std::vector<Bitmap> pack_masks;
  std::vector<Bitmap> core_masks;
  auto mask_id = [](std::vector<Bitmap>& known, const Bitmap& m) {
    for (std::size_t i = 0; i < known.size(); ++i)
      if (known[i] == m) return static_cast<int>(i);
    known.push_back(m);
    return static_cast<int>(known.size() - 1);
  };
  auto read_mask = [&](const fs::path& dir, const char* preferred,
                       const char* legacy) -> std::optional<Bitmap> {
    for (const char* name : {preferred, legacy}) {
      if (const auto s = read_file_trimmed(dir / name)) {
        try {
          return Bitmap::parse_hex_mask(*s);
        } catch (const ContractError&) {
          return std::nullopt;
        }
      }
    }
    return std::nullopt;
  };

  // Group cpus: package -> numa -> core -> [pus].
  // Key components default to 0 when a file is missing so that partially
  // populated sysfs trees (VMs, containers) still produce a usable tree.
  struct Key {
    int pack, numa, core;
    auto operator<=>(const Key&) const = default;
  };
  std::map<Key, std::vector<int>> groups;
  bool any_topology_file = false;
  for (int cpu : online.to_vector()) {
    const fs::path topo = cpu_dir / ("cpu" + std::to_string(cpu)) / "topology";
    auto pack = read_int(topo / "physical_package_id");
    auto core = read_int(topo / "core_id");
    if (!pack) {
      if (const auto m = read_mask(topo, "package_cpus", "core_siblings"))
        pack = mask_id(pack_masks, *m);
    }
    if (!core) {
      if (const auto m = read_mask(topo, "core_cpus", "thread_siblings"))
        core = mask_id(core_masks, *m);
    }
    if (pack || core) any_topology_file = true;
    const auto numa_it = cpu_numa.find(cpu);
    groups[Key{pack.value_or(0), numa_it == cpu_numa.end() ? 0 : numa_it->second,
               core.value_or(0)}]
        .push_back(cpu);
  }
  if (!any_topology_file && cpu_numa.empty()) {
    // No structure at all: report failure so callers fall back to flat().
    return std::nullopt;
  }

  const bool have_numa = !cpu_numa.empty();

  auto root = std::make_unique<Object>();
  root->type = ObjType::Machine;

  // Build nested maps for deterministic construction order.
  std::map<int, std::map<int, std::map<int, std::vector<int>>>> nested;
  for (const auto& [key, cpus] : groups) nested[key.pack][key.numa][key.core] = cpus;

  for (const auto& [pack_id, numas] : nested) {
    auto pack = std::make_unique<Object>();
    pack->type = ObjType::Package;
    pack->parent = root.get();
    (void)pack_id;
    for (const auto& [numa_id, cores] : numas) {
      Object* core_parent = pack.get();
      std::unique_ptr<Object> numa;
      if (have_numa) {
        numa = std::make_unique<Object>();
        numa->type = ObjType::NUMANode;
        numa->parent = pack.get();
        // Keep the OS node id: memory placement (mem/numa.h) speaks OS
        // node ids, and lstopo-style output can show them.
        numa->os_index = numa_id;
        core_parent = numa.get();
      }
      for (const auto& [core_id, cpus] : cores) {
        auto core = std::make_unique<Object>();
        core->type = ObjType::Core;
        core->parent = core_parent;
        (void)core_id;
        for (int cpu : cpus) {
          auto pu = std::make_unique<Object>();
          pu->type = ObjType::PU;
          pu->parent = core.get();
          pu->os_index = cpu;
          core->children.push_back(std::move(pu));
        }
        core_parent->children.push_back(std::move(core));
      }
      if (numa) pack->children.push_back(std::move(numa));
    }
    root->children.push_back(std::move(pack));
  }

  try {
    return Topology::from_tree(std::move(root));
  } catch (const ContractError& e) {
    ORWL_LOG(Warn) << "sysfs topology rejected: " << e.what();
    return std::nullopt;
  }
}

}  // namespace orwl::topo
