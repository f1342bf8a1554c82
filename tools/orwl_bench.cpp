// orwl_bench: benchmark any registered workload across placement policies
// and backends through the shared harness, with the measured-matrix
// feedback mode of the paper as a first-class flag.
//
//   orwl_bench --list
//   orwl_bench --workload stencil2d --policy treematch --backend sim
//              --json out.json
//   orwl_bench --workload all --policy all --backend both --feedback
//
// Policies: none | compact | scatter | random | treematch | all.
// Backends: runtime (host execution) | sim (NUMA model) | both.
// --feedback re-places with TreeMatch on the comm matrix measured during
// the static runs and reports the speedup per case.

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "harness/bench.h"
#include "obs/export.h"
#include "support/table.h"
#include "support/time.h"

namespace {

using namespace orwl;

int usage(const char* argv0, int code) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: " << argv0 << " --list | --list-names\n"
     << "       " << argv0 << " --workload NAME|all [options]\n"
     << "options:\n"
     << "  --policy P      none|compact|scatter|random|treematch|all "
        "(default treematch)\n"
     << "  --backend B     runtime|sim|both (default sim)\n"
     << "  --topo SPEC     sim topology, e.g. 'pack:4 core:8 pu:1' "
        "(default: paper machine)\n"
     << "  --tasks N --size S --iters I   scale overrides (default: "
        "per-workload)\n"
     << "  --warmup W      warmup runs (default 1)\n"
     << "  --reps R        timed repetitions (default 3)\n"
     << "  --feedback      measured-matrix TreeMatch re-placement phase\n"
     << "  --replace M     online re-placement: off|every_epoch|on_drift "
        "(default off);\n"
     << "                  each case runs twice — static, then with the "
        "policy — so\n"
     << "                  the adaptive win is visible side by side\n"
     << "  --epoch N       epoch length in iterations for --replace "
        "(default 2)\n"
     << "  --tau X         on_drift threshold in [0,1] (default 0.25)\n"
     << "  --wait-strategy S   runtime-backend wait strategy: block | spin "
        "|\n"
     << "                  spin_then_park[(N)] (default: runtime default, "
        "spin_then_park(256))\n"
     << "  --memory-policy P   location memory: heap | numa_local | "
        "numa_interleave\n"
     << "                  (default heap); a non-heap policy runs each "
        "case twice —\n"
     << "                  heap, then the policy — so the memory win is "
        "visible\n"
     << "                  side by side\n"
     << "  --no-verify     skip result verification\n"
     << "  --seed N        placement / simulation seed (default 42)\n"
     << "  --json PATH     write machine-readable results (BENCH_*.json)\n"
     << "  --trace PATH    record a Chrome/Perfetto trace of each case's "
        "last\n"
        "                  timed run (open at ui.perfetto.dev); with "
        "multiple\n"
        "                  cases the case name is spliced into PATH. "
        "Recording\n"
        "                  overhead lands in the measured time — trace OR\n"
        "                  measure, not both at once\n"
     << "  --metrics       collect and print the runtime metric registry "
        "per\n"
        "                  case (grant counters, wait/latency histograms)\n";
  return code;
}

std::string fmt_stats(const harness::Stats& s) {
  return orwl::format_seconds(s.median) + " ±" + orwl::format_seconds(s.mad);
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(argv[0], 2);

  std::string workload, policy_arg = "treematch", backend_arg = "sim";
  harness::CaseSpec base;
  bool tasks_set = false, size_set = false, iters_set = false;
  std::string json_path;
  place::ReplacementPolicy replace;
  replace.epoch_length = 2;
  mem::MemoryPolicy mempol = mem::MemoryPolicy::Heap;

  const auto need_value = [&](std::size_t& i) -> std::string {
    if (i + 1 >= args.size()) {
      std::cerr << args[i] << " needs a value\n";
      std::exit(usage(argv[0], 2));
    }
    return args[++i];
  };

  const auto parse_long = [&](const std::string& flag,
                              const std::string& value) -> long {
    try {
      std::size_t used = 0;
      const long v = std::stol(value, &used);
      if (used == value.size()) return v;
    } catch (const std::exception&) {
    }
    std::cerr << flag << " needs a number, got '" << value << "'\n";
    std::exit(usage(argv[0], 2));
  };

  const auto parse_double = [&](const std::string& flag,
                                const std::string& value) -> double {
    try {
      std::size_t used = 0;
      const double v = std::stod(value, &used);
      if (used == value.size()) return v;
    } catch (const std::exception&) {
    }
    std::cerr << flag << " needs a number, got '" << value << "'\n";
    std::exit(usage(argv[0], 2));
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--help" || a == "-h") return usage(argv[0], 0);
    if (a == "--list" || a == "--list-names") {
      if (a == "--list") {
        Table table({"workload", "description", "tasks", "size", "iters"});
        for (const workloads::Workload& w : workloads::registry())
          table.add_row({w.name, w.description,
                         std::to_string(w.defaults.tasks),
                         std::to_string(w.defaults.size),
                         std::to_string(w.defaults.iterations)});
        table.print(std::cout);
      } else {
        for (const std::string& name : workloads::names())
          std::cout << name << '\n';
      }
      return 0;
    }
    if (a == "--workload") workload = need_value(i);
    else if (a == "--policy") policy_arg = need_value(i);
    else if (a == "--backend") backend_arg = need_value(i);
    else if (a == "--topo") base.topo_spec = need_value(i);
    else if (a == "--tasks") { base.params.tasks = static_cast<int>(parse_long(a, need_value(i))); tasks_set = true; }
    else if (a == "--size") { base.params.size = parse_long(a, need_value(i)); size_set = true; }
    else if (a == "--iters") { base.params.iterations = static_cast<int>(parse_long(a, need_value(i))); iters_set = true; }
    else if (a == "--warmup") base.warmup = static_cast<int>(parse_long(a, need_value(i)));
    else if (a == "--reps") base.repetitions = static_cast<int>(parse_long(a, need_value(i)));
    else if (a == "--feedback") base.feedback = true;
    else if (a == "--replace") replace.mode = place::parse_replacement_mode(need_value(i));
    else if (a == "--epoch") replace.epoch_length = static_cast<int>(parse_long(a, need_value(i)));
    else if (a == "--tau") replace.drift_threshold = parse_double(a, need_value(i));
    else if (a == "--wait-strategy") base.wait = sync::parse_wait_strategy(need_value(i));
    else if (a == "--memory-policy") mempol = mem::parse_memory_policy(need_value(i));
    else if (a == "--no-verify") base.verify = false;
    else if (a == "--seed") base.seed = static_cast<std::uint64_t>(parse_long(a, need_value(i)));
    else if (a == "--json") json_path = need_value(i);
    else if (a == "--trace") base.trace_path = need_value(i);
    else if (a == "--metrics") base.collect_metrics = true;
    else {
      std::cerr << "unknown option '" << a << "'\n";
      return usage(argv[0], 2);
    }
  }
  if (workload.empty()) {
    std::cerr << "--workload is required (or --list)\n";
    return usage(argv[0], 2);
  }

  std::vector<std::string> workload_names;
  if (workload == "all") workload_names = workloads::names();
  else workload_names = {workload};

  std::vector<std::string> backends;
  if (backend_arg == "both") backends = {"runtime", "sim"};
  else backends = {backend_arg};

  std::vector<harness::CaseResult> results;
  try {
    std::vector<place::Policy> policies;
    if (policy_arg == "all")
      policies = {place::Policy::None, place::Policy::Compact,
                  place::Policy::Scatter, place::Policy::Random,
                  place::Policy::TreeMatch};
    else
      policies = {place::parse_policy(policy_arg)};

    // A non-heap memory policy pairs every case with its heap twin, the
    // same way --replace pairs static with adaptive.
    std::vector<mem::MemoryPolicy> memories = {mem::MemoryPolicy::Heap};
    if (mempol != mem::MemoryPolicy::Heap) memories.push_back(mempol);

    // Several sweeps off the same base (workload / memory / replacement
    // twins) must not overwrite one --trace file between them.
    const bool split_traces =
        workload_names.size() * memories.size() *
            (replace.enabled() ? 2 : 1) >
        1;

    for (const std::string& name : workload_names) {
      harness::CaseSpec spec = base;
      spec.workload = name;
      const workloads::Params defaults = workloads::get(name).defaults;
      if (!tasks_set) spec.params.tasks = defaults.tasks;
      if (!size_set) spec.params.size = defaults.size;
      if (!iters_set) spec.params.iterations = defaults.iterations;
      for (const mem::MemoryPolicy memory : memories) {
        spec.memory = memory;
        spec.replacement = {};
        for (const harness::CaseResult& r :
             harness::run_sweep(spec, policies, backends, split_traces))
          results.push_back(r);
        if (replace.enabled()) {
          // The same grid again with online re-placement, so each
          // adaptive case sits next to its static twin in the output.
          spec.replacement = replace;
          for (const harness::CaseResult& r :
               harness::run_sweep(spec, policies, backends, split_traces))
            results.push_back(r);
        }
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  Table table({"case", "tasks", "time (median ±MAD)", "set-up (median ±MAD)",
               "feedback time", "feedback speedup", "replaced", "verified"});
  bool all_ok = true;
  for (const harness::CaseResult& r : results) {
    const bool ok = !r.verify_ran || r.verified;
    all_ok = all_ok && ok;
    table.add_row(
        {harness::case_name(r.spec), std::to_string(r.num_tasks),
         fmt_stats(r.time),
         r.spec.backend == "runtime" ? fmt_stats(r.setup) : std::string("-"),
         r.feedback.ran ? fmt_stats(r.feedback.time) : std::string("-"),
         r.feedback.ran ? orwl::fmt(r.feedback.speedup, 2) + "x"
                        : std::string("-"),
         r.spec.replacement.enabled()
             ? std::to_string(r.replacements) + "/" +
                   std::to_string(r.epochs.size())
             : std::string("-"),
         r.verify_ran ? (r.verified ? "yes" : "NO") : "skipped"});
    if (r.verify_ran && !r.verified)
      std::cerr << harness::case_name(r.spec) << ": verification failed: "
                << r.verify_error << '\n';
  }
  table.print(std::cout);

  if (base.collect_metrics) {
    for (const harness::CaseResult& r : results) {
      if (r.metrics.empty()) continue;
      std::cout << '\n' << "metrics for " << harness::case_name(r.spec)
                << ":\n";
      obs::dump_metrics(std::cout, r.metrics);
    }
  }

  if (!json_path.empty()) {
    std::cout << '\n';
    if (!harness::write_json_file(json_path, results)) return 1;
  }
  return all_ok ? 0 : 1;
}
