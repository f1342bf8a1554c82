// Table E (micro): cost of the mapping algorithm itself. The paper runs
// Algorithm 1 once at launch time — and the online re-placer re-runs it at
// epoch boundaries — so this measures how that cost scales with the number
// of threads, for stencil and random matrices, the oversubscribed LK23
// shape, and the two grouping engines. Timing, repetition and JSON
// emission go through the shared harness (median/MAD over R repetitions
// after warmup), so the bench builds everywhere without google-benchmark
// and its output matches the BENCH_*.json layout of the other drivers.
//
//   micro_treematch_scaling [--reps R] [--warmup W] [--json PATH]

#include <cmath>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "comm/patterns.h"
#include "harness/bench.h"
#include "harness/json.h"
#include "harness/stats.h"
#include "support/table.h"
#include "support/time.h"
#include "treematch/treematch.h"

namespace {

using namespace orwl;

/// One micro scenario: a callable that performs `items` mapping runs and
/// returns the elapsed seconds.
struct Micro {
  std::string name;
  double items = 0;
  std::function<double()> once;
};

topo::Topology machine_for(int threads) {
  // Scale the machine with the thread count: packs of 8 cores.
  const int packs = std::max(1, threads / 8);
  return topo::Topology::synthetic("pack:" + std::to_string(packs) +
                                   " core:8 pu:1");
}

/// Time `repeats` map_threads() calls on (topo, m).
double time_maps(const topo::Topology& topo, const comm::CommMatrix& m,
                 int repeats) {
  treematch::Options opts;
  opts.manage_control_threads = false;
  WallTimer timer;
  for (int i = 0; i < repeats; ++i) {
    const treematch::Result r = treematch::map_threads(topo, m, opts);
    if (r.compute_pu.empty()) std::abort();  // keep the call observable
  }
  return timer.seconds();
}

Micro map_stencil(int threads) {
  const int repeats = threads >= 512 ? 1 : 5;
  return {"map_stencil/" + std::to_string(threads),
          static_cast<double>(repeats), [threads, repeats] {
            const topo::Topology topo = machine_for(threads);
            const int side =
                static_cast<int>(std::sqrt(static_cast<double>(threads)));
            return time_maps(
                topo, comm::stencil_matrix({threads / side, side, 128, 128}),
                repeats);
          }};
}

Micro map_random(int threads) {
  const int repeats = threads >= 512 ? 1 : 5;
  return {"map_random/" + std::to_string(threads),
          static_cast<double>(repeats), [threads, repeats] {
            const topo::Topology topo = machine_for(threads);
            return time_maps(topo, comm::random_matrix(threads, 0.1, 1000.0, 5),
                             repeats);
          }};
}

Micro map_oversubscribed(int blocks) {
  // The paper's LK23 case: ~9 operations per block on one PU per block.
  const int repeats = 3;
  return {"map_oversubscribed/" + std::to_string(blocks * 9) + "ops",
          static_cast<double>(repeats), [blocks, repeats] {
            const topo::Topology topo = machine_for(blocks);
            return time_maps(
                topo, comm::clustered_matrix(blocks * 9, 9, 4096.0, 8.0),
                repeats);
          }};
}

Micro group_engine(bool seeded) {
  // Candidate-enumeration engine vs seeded-greedy engine, same instance.
  const int repeats = seeded ? 50 : 5;
  return {std::string("group_processes/") +
              (seeded ? "seeded-greedy" : "candidate-list"),
          static_cast<double>(repeats), [seeded, repeats] {
            const comm::CommMatrix m = comm::random_matrix(64, 0.3, 100.0, 9);
            const std::size_t limit = seeded ? 1 : 50000;
            WallTimer timer;
            for (int i = 0; i < repeats; ++i) {
              const treematch::Groups g = treematch::group_processes(m, 4,
                                                                     limit);
              if (g.empty()) std::abort();
            }
            return timer.seconds();
          }};
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3, warmup = 1;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--reps" && i + 1 < argc) reps = std::atoi(argv[++i]);
    else if (a == "--warmup" && i + 1 < argc) warmup = std::atoi(argv[++i]);
    else if (a == "--json" && i + 1 < argc) json_path = argv[++i];
    else {
      std::cerr << "usage: " << argv[0]
                << " [--reps R] [--warmup W] [--json PATH]\n";
      return 2;
    }
  }
  if (reps < 1 || warmup < 0) {
    std::cerr << "need --reps >= 1 and --warmup >= 0 (got reps=" << reps
              << ", warmup=" << warmup << ")\n";
    return 2;
  }

  std::vector<Micro> micros;
  for (int n : {16, 64, 192, 512, 1024}) micros.push_back(map_stencil(n));
  for (int n : {16, 64, 192, 512}) micros.push_back(map_random(n));
  for (int n : {24, 96, 192}) micros.push_back(map_oversubscribed(n));
  micros.push_back(group_engine(false));
  micros.push_back(group_engine(true));

  struct Row {
    Micro micro;
    harness::Stats stats;
  };
  std::vector<Row> rows;
  Table table({"benchmark", "time (median ±MAD)", "per map"});
  for (Micro& micro : micros) {
    const harness::Stats stats = harness::sample(warmup, reps, micro.once);
    table.add_row({micro.name,
                   format_seconds(stats.median) + " ±" +
                       format_seconds(stats.mad),
                   format_seconds(stats.median > 0
                                      ? stats.median / micro.items
                                      : 0.0)});
    rows.push_back({micro, stats});
  }
  table.print(std::cout);

  if (!json_path.empty()) {
    std::cout << '\n';
    const bool ok = harness::write_bench_file(
        json_path, "micro_treematch_scaling",
        [&](harness::JsonWriter& json) {
          json.member("repetitions", reps);
          json.member("warmup", warmup);
        },
        [&](harness::JsonWriter& json) {
          for (const Row& row : rows) {
            json.begin_object();
            json.member("name", row.micro.name);
            json.member("maps_per_sample", row.micro.items);
            json.member("seconds_median", row.stats.median);
            json.member("seconds_mad", row.stats.mad);
            json.member("seconds_min", row.stats.min);
            json.member("seconds_max", row.stats.max);
            json.member("seconds_per_map",
                        row.stats.median > 0
                            ? row.stats.median / row.micro.items
                            : 0.0);
            json.end_object();
          }
        });
    if (!ok) return 1;
  }
  return 0;
}
