// Topology explorer: prints the detected host topology and the paper's
// 192-core machine, then shows what Algorithm 1 does with a stencil
// application on each — the mapping, its locality metrics, and how the
// alternative policies compare.
//
// The stencil is declared as an orwl::Program with no bodies: locations
// and access declarations alone carry the sharing structure, so the
// communication matrix and the placement plans come straight from the
// declaration — no runtime, no execution. (Only Program::run needs
// bodies.)

#include <array>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "comm/metrics.h"
#include "comm/patterns.h"
#include "orwl/program.h"
#include "support/table.h"

namespace {

using namespace orwl;

// A halo-exchange stencil on grid g: every block task exports one face
// location per existing neighbour (4-neighbourhood) and reads the
// neighbours' opposing faces.
Program stencil_program(const comm::BlockGrid& g) {
  Program p;
  // faces[b][d]: block b's export towards direction d.
  std::vector<std::array<Location<double>, comm::kAxisDirs>> faces(
      static_cast<std::size_t>(g.blocks()));
  for (int b = 0; b < g.blocks(); ++b)
    for (int d = 0; d < comm::kAxisDirs; ++d)
      if (g.neighbour(b, d) >= 0)
        faces[static_cast<std::size_t>(b)][static_cast<std::size_t>(d)] =
            p.location<double>(static_cast<std::size_t>(g.face_elems(d)),
                               "face" + std::to_string(b) + "d" +
                                   std::to_string(d));
  for (int b = 0; b < g.blocks(); ++b) {
    TaskBuilder t = p.task("block" + std::to_string(b));
    for (int d = 0; d < comm::kAxisDirs; ++d) {
      const auto& own =
          faces[static_cast<std::size_t>(b)][static_cast<std::size_t>(d)];
      if (own.valid()) t.writes(own);
      const int nb = g.neighbour(b, d);
      if (nb < 0) continue;
      t.reads(faces[static_cast<std::size_t>(nb)]
                   [static_cast<std::size_t>(comm::opposite(d))]);
    }
  }
  return p;
}

void explore(const char* name, const topo::Topology& topo) {
  std::cout << "=== " << name << " ===\n";
  std::cout << "depth " << topo.depth() << ", " << topo.num_pus()
            << " PUs, arities:";
  for (int a : topo.arities()) std::cout << ' ' << a;
  std::cout << (topo.is_balanced() ? " (balanced)" : " (irregular)") << "\n";
  if (topo.num_pus() <= 16) std::cout << topo.to_string();

  // A stencil as large as the machine, declared as a Program.
  const int pus = topo.num_pus();
  const int side = std::max(1, static_cast<int>(std::sqrt(double(pus))));
  const int blocks_y = side;
  const int blocks_x = pus / side;
  const Program p = stencil_program({blocks_x, blocks_y, 256, 256});
  const auto m = p.static_comm_matrix();

  Table table({"policy", "hop-bytes (KiB)", "package-local %"});
  for (place::Policy policy :
       {place::Policy::TreeMatch, place::Policy::Compact,
        place::Policy::Scatter, place::Policy::Random}) {
    const place::Plan plan = place::compute_plan(policy, topo, m);
    const double hb = comm::hop_bytes(topo, m, plan.compute_pu);
    const double local =
        comm::locality_fraction(topo, m, plan.compute_pu, 1);
    table.add_row({place::to_string(policy), fmt(hb / 1024.0, 1),
                   fmt(100.0 * local, 1)});
  }
  std::cout << "\nstencil of " << p.num_tasks() << " threads ("
            << blocks_x << "x" << blocks_y << " blocks, "
            << p.num_locations() << " face locations):\n";
  table.print(std::cout);
  std::cout << '\n';
}

}  // namespace

int main() {
  explore("host machine (detected)", topo::Topology::host());
  explore("paper machine (24 sockets x 8 cores)",
          topo::Topology::paper_machine());
  explore("SMT machine (2 sockets x 8 cores x 2 threads)",
          topo::Topology::synthetic("pack:2 core:8 pu:2"));
  return 0;
}
