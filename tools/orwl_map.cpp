// orwl-map: command-line front end to Algorithm 1.
//
// Reads a communication matrix (CSV, one row per thread) and maps it onto
// a topology — the host machine by default, or a synthetic description.
// Prints the thread -> PU assignment, the control-thread strategy chosen,
// and locality metrics compared against the baseline policies.
//
// Usage:
//   orwl-map matrix.csv                      # map onto the host
//   orwl-map matrix.csv "pack:24 core:8 pu:1"
//   orwl-map --pattern stencil:16x12 "pack:24 core:8 pu:1"
//   orwl-map --pattern ring:32
//
// Exit code 0 on success, 1 on usage errors.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "comm/metrics.h"
#include "comm/patterns.h"
#include "place/placement.h"
#include "support/table.h"

namespace {

using namespace orwl;

int usage() {
  std::cerr <<
      "usage: orwl-map <matrix.csv> [synthetic-topology]\n"
      "       orwl-map --pattern stencil:<bx>x<by> [synthetic-topology]\n"
      "       orwl-map --pattern ring:<n>          [synthetic-topology]\n"
      "       orwl-map --pattern clustered:<n>/<size> [synthetic-topology]\n"
      "The topology defaults to the detected host machine.\n";
  return 1;
}

std::optional<comm::CommMatrix> make_pattern(const std::string& desc) {
  const auto colon = desc.find(':');
  if (colon == std::string::npos) return std::nullopt;
  const std::string kind = desc.substr(0, colon);
  const std::string args = desc.substr(colon + 1);
  try {
    if (kind == "stencil") {
      const auto x = args.find('x');
      if (x == std::string::npos) return std::nullopt;
      return comm::stencil_matrix({std::stoi(args.substr(0, x)),
                                   std::stoi(args.substr(x + 1)), 256, 256});
    }
    if (kind == "ring") return comm::ring_matrix(std::stoi(args), 4096.0);
    if (kind == "clustered") {
      const auto slash = args.find('/');
      if (slash == std::string::npos) return std::nullopt;
      return comm::clustered_matrix(std::stoi(args.substr(0, slash)),
                                    std::stoi(args.substr(slash + 1)),
                                    4096.0, 16.0);
    }
  } catch (const std::exception&) {
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();

  comm::CommMatrix m(0);
  int topo_arg = 2;
  if (std::string(argv[1]) == "--pattern") {
    if (argc < 3) return usage();
    const auto pattern = make_pattern(argv[2]);
    if (!pattern) return usage();
    m = *pattern;
    topo_arg = 3;
  } else {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "orwl-map: cannot open '" << argv[1] << "'\n";
      return 1;
    }
    try {
      m = comm::CommMatrix::load_csv(in);
    } catch (const std::exception& e) {
      std::cerr << "orwl-map: bad matrix: " << e.what() << '\n';
      return 1;
    }
  }
  if (m.order() == 0) {
    std::cerr << "orwl-map: empty matrix\n";
    return 1;
  }

  topo::Topology topo = topo::Topology::flat(1);
  try {
    topo = argc > topo_arg ? topo::Topology::synthetic(argv[topo_arg])
                           : topo::Topology::host();
  } catch (const std::exception& e) {
    std::cerr << "orwl-map: bad topology: " << e.what() << '\n';
    return 1;
  }

  std::cout << "topology: " << topo.summary() << " (" << topo.num_pus()
            << " PUs)\nthreads:  " << m.order() << ", total volume "
            << fmt(m.total_volume() / 1024.0, 1) << " KiB\n\n";

  const place::Plan plan =
      place::compute_plan(place::Policy::TreeMatch, topo, m);

  Table assign({"thread", "compute PU", "control PU"});
  for (int t = 0; t < m.order(); ++t)
    assign.add_row(
        {std::to_string(t),
         std::to_string(plan.compute_pu[static_cast<std::size_t>(t)]),
         std::to_string(plan.control_pu[static_cast<std::size_t>(t)])});
  assign.print(std::cout);
  std::cout << "\ncontrol strategy: "
            << treematch::to_string(plan.treematch.control_used)
            << ", oversubscribed: "
            << (plan.treematch.oversubscribed ? "yes" : "no") << " (x"
            << plan.treematch.threads_per_leaf << ")\n\n";

  Table metrics({"policy", "hop-bytes (KiB)", "package-local %"});
  for (place::Policy policy :
       {place::Policy::TreeMatch, place::Policy::Compact,
        place::Policy::Scatter, place::Policy::Random}) {
    const place::Plan p = place::compute_plan(policy, topo, m);
    metrics.add_row(
        {place::to_string(policy),
         fmt(comm::hop_bytes(topo, m, p.compute_pu) / 1024.0, 1),
         fmt(100.0 * comm::locality_fraction(topo, m, p.compute_pu, 1), 1)});
  }
  metrics.print(std::cout);
  return 0;
}
