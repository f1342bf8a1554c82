// Table A (ablation): mapping quality of the placement policies across
// workload patterns and topologies. Reports hop-bytes (lower = better
// locality), the fraction of traffic kept inside a package, and the
// simulated iteration time of the resulting placement. The simulated
// exchange timing and the JSON emission come from the shared harness
// instead of a hand-rolled sim::Workload loop.
//
//   tbl_mapping_quality [--json PATH]

#include <cmath>
#include <iostream>

#include "comm/metrics.h"
#include "comm/patterns.h"
#include "harness/bench.h"
#include "harness/json.h"
#include "place/placement.h"
#include "support/table.h"
#include "support/time.h"

namespace {

using namespace orwl;

struct Pattern {
  const char* name;
  comm::CommMatrix matrix;
};

struct Row {
  std::string topo;
  std::string pattern;
  place::Policy policy;
  double hop_bytes = 0.0;
  double package_local = 0.0;
  double sim_seconds = 0.0;
  double vs_treematch = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) json_path = argv[++i];
    else {
      std::cerr << "usage: " << argv[0] << " [--json PATH]\n";
      return 2;
    }
  }

  const char* topo_specs[] = {"pack:4 core:8 pu:1", "pack:24 core:8 pu:1"};
  std::vector<Row> rows;

  for (const char* spec : topo_specs) {
    const auto topo = topo::Topology::synthetic(spec);
    const int p = topo.num_pus();
    std::cout << "=== topology " << spec << " (" << p << " PUs) ===\n\n";

    std::vector<Pattern> patterns;
    {
      const int side = static_cast<int>(std::sqrt(double(p)));
      patterns.push_back(
          {"stencil", comm::stencil_matrix({p / side, side, 256, 256})});
      patterns.push_back({"ring", comm::ring_matrix(p, 4096.0)});
      patterns.push_back(
          {"clustered", comm::clustered_matrix(p, 8, 4096.0, 16.0)});
      patterns.push_back({"random", comm::random_matrix(p, 0.1, 4096.0, 3)});
    }

    for (const auto& pat : patterns) {
      Table table({"policy", "hop-bytes", "package-local %", "sim time/iter",
                   "vs treematch"});
      const int pkg_depth = 1;
      double tm_time = 0.0;
      for (place::Policy policy :
           {place::Policy::TreeMatch, place::Policy::Compact,
            place::Policy::Scatter, place::Policy::Random}) {
        treematch::Options tm_opts;
        tm_opts.manage_control_threads = false;
        const place::Plan plan =
            place::compute_plan(policy, topo, pat.matrix, tm_opts);
        Row row;
        row.topo = spec;
        row.pattern = pat.name;
        row.policy = policy;
        row.hop_bytes = comm::hop_bytes(topo, pat.matrix, plan.compute_pu);
        row.package_local = comm::locality_fraction(
            topo, pat.matrix, plan.compute_pu, pkg_depth);
        row.sim_seconds =
            harness::simulated_exchange_seconds(topo, pat.matrix,
                                                plan.compute_pu);
        if (policy == place::Policy::TreeMatch) tm_time = row.sim_seconds;
        row.vs_treematch = tm_time > 0.0 ? row.sim_seconds / tm_time : 0.0;
        table.add_row({place::to_string(policy),
                       orwl::fmt(row.hop_bytes / 1024.0, 1),
                       orwl::fmt(100.0 * row.package_local, 1),
                       orwl::format_seconds(row.sim_seconds),
                       orwl::fmt(row.vs_treematch, 2)});
        rows.push_back(row);
      }
      std::cout << "--- pattern: " << pat.name << " ---\n";
      table.print(std::cout);
      std::cout << '\n';
    }
  }

  if (!json_path.empty() &&
      !harness::write_bench_file(
          json_path, "tbl_mapping_quality", nullptr,
          [&](harness::JsonWriter& json) {
            for (const Row& row : rows) {
              json.begin_object();
              json.member("name", row.topo + "/" + row.pattern + "/" +
                                      place::to_string(row.policy));
              json.member("topology", row.topo);
              json.member("pattern", row.pattern);
              json.member("policy", place::to_string(row.policy));
              json.member("hop_bytes", row.hop_bytes);
              json.member("package_local_fraction", row.package_local);
              json.member("sim_seconds_per_iteration", row.sim_seconds);
              json.member("vs_treematch", row.vs_treematch);
              json.end_object();
            }
          }))
    return 1;
  return 0;
}
