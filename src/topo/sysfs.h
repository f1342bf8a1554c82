#pragma once
// Linux sysfs topology detection. Parses
//   <root>/devices/system/cpu/online
//   <root>/devices/system/cpu/cpuN/topology/physical_package_id
//   <root>/devices/system/cpu/cpuN/topology/core_id
//   <root>/devices/system/node/nodeN/cpulist        (optional)
// into a Machine → Package → [NUMANode →] Core → PU tree.
//
// The root path is a parameter so tests can point it at a fabricated
// directory tree.

#include <optional>
#include <string>

#include "topo/topology.h"

namespace orwl::topo {

/// Detect the machine described under `sysfs_root` (normally "/sys").
/// Returns nullopt when the expected files are absent or unreadable.
/// `allowed` (Topology::host() passes the calling thread's affinity mask)
/// keeps only the online CPUs it names; cores, packages and NUMA nodes
/// left without a CPU do not appear. nullopt, or a mask that names no
/// online CPU, keeps every online CPU.
std::optional<Topology> detect_from_sysfs(
    const std::string& sysfs_root,
    const std::optional<Bitmap>& allowed = std::nullopt);

}  // namespace orwl::topo
