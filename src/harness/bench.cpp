#include "harness/bench.h"

#include <ctime>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <ostream>
#include <utility>

#include "harness/json.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "orwl/backend.h"
#include "sim/calibration.h"
#include "sim/simulator.h"
#include "support/assert.h"
#include "topo/topology.h"

namespace orwl::harness {

namespace {

topo::Topology sim_topology(const CaseSpec& spec) {
  return spec.topo_spec.empty() ? topo::Topology::paper_machine()
                                : topo::Topology::synthetic(spec.topo_spec);
}

std::unique_ptr<Backend> make_backend(const CaseSpec& spec,
                                      bool need_emulation) {
  if (spec.backend == "runtime") return std::make_unique<RuntimeBackend>();
  if (spec.backend == "sim") {
    topo::Topology topo = sim_topology(spec);
    const sim::LinkCost cost = sim::LinkCost::defaults_for(topo);
    SimBackendOptions opts;
    opts.emulate = need_emulation;
    opts.seed = spec.seed;
    return std::make_unique<SimBackend>(std::move(topo), cost, opts);
  }
  ORWL_CHECK_MSG(false, "unknown backend '" << spec.backend
                                            << "'; use 'runtime' or 'sim'");
  return nullptr;  // unreachable
}

/// The measured communication-flow matrix of the backend's latest run.
comm::CommMatrix measured_matrix(Backend& backend) {
  Runtime* rt = backend.instrumented_runtime();
  ORWL_CHECK_MSG(rt != nullptr,
                 "backend has no instrumented runtime to measure flows "
                 "(sim backend without emulation?)");
  return rt->measured_comm_matrix();
}

std::string iso_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

void write_stats(JsonWriter& json, const std::string& prefix,
                 const Stats& s) {
  json.member(prefix + "_median", s.median);
  json.member(prefix + "_mad", s.mad);
  json.member(prefix + "_mean", s.mean);
  json.member(prefix + "_min", s.min);
  json.member(prefix + "_max", s.max);
}

/// The one BENCH_*.json document shape: context + benchmarks array.
void emit_document(std::ostream& os, const std::string& bench,
                   const std::function<void(JsonWriter&)>& context_extra,
                   const std::function<void(JsonWriter&)>& benchmarks) {
  JsonWriter json(os);
  json.begin_object();
  json.begin_object("context");
  json.member("bench", bench);
  json.member("date", iso_utc_now());
  json.member("host_name", sim::host_fingerprint());
  json.member("harness_schema", 3);
  if (context_extra) context_extra(json);
  json.end_object();
  json.begin_array("benchmarks");
  if (benchmarks) benchmarks(json);
  json.end_array();
  json.end_object();
  os << '\n';
}

// "dir/out.json" + "stencil2d/sim/treematch" -> "dir/out.stencil2d_sim_treematch.json":
// one trace file per swept case, distinguishable at a glance.
std::string trace_path_for(const std::string& base,
                           const std::string& case_name) {
  std::string tag = case_name;
  for (char& c : tag)
    if (c == '/' || c == ':') c = '_';
  const std::size_t slash = base.find_last_of('/');
  const std::size_t dot = base.find_last_of('.');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash))
    return base + "." + tag;
  return base.substr(0, dot) + "." + tag + base.substr(dot);
}

}  // namespace

std::string case_name(const CaseSpec& spec) {
  std::string name = spec.workload + "/" + spec.backend + "/" +
                     place::to_string(spec.policy) +
                     (spec.feedback ? "/feedback" : "");
  if (spec.replacement.enabled())
    name += std::string("/replace:") +
            place::to_string(spec.replacement.mode);
  if (spec.wait) name += "/wait:" + sync::to_string(*spec.wait);
  if (spec.memory != mem::MemoryPolicy::Heap)
    name += std::string("/mem:") + mem::to_string(spec.memory);
  return name;
}

CaseResult run_case(const CaseSpec& spec) {
  const workloads::Workload& wl = workloads::get(spec.workload);
  ORWL_CHECK_MSG(spec.repetitions >= 1, "need at least one repetition");
  ORWL_CHECK_MSG(spec.warmup >= 0, "negative warmup count");

  CaseResult res;
  res.spec = spec;
  // Feedback needs the instrumented flow matrix, verification the location
  // contents. The timing backend never emulates — sim predictions come
  // from the analytic model, so executing the bodies on every repetition
  // would cost full native runs for nothing. When needed, a separate
  // emulating backend executes ONCE per phase to supply fetchable state.
  const bool need_fetch = spec.verify || spec.feedback;
  const std::unique_ptr<Backend> timing = make_backend(spec, false);
  std::unique_ptr<Backend> emulated;
  Backend* fetcher = timing.get();
  if (need_fetch && spec.backend == "sim") {
    emulated = make_backend(spec, true);
    fetcher = emulated.get();
  }

  // Observability: tracing / detailed metrics are process-global flags —
  // flip them for this case's runs and restore afterwards. The last
  // static-phase run on the TIMING backend supplies the written trace and
  // the metric snapshot.
  const bool tracing = !spec.trace_path.empty();
  const bool keep_metrics = spec.collect_metrics || tracing;
  const bool prev_trace = tracing ? obs::enable_tracing(true) : false;
  const bool prev_detail =
      keep_metrics ? obs::enable_detailed_metrics(true) : false;
  obs::TraceData trace;

  workloads::Built built;
  // The recorded epoch trace covers the static phase only; the feedback
  // phase re-runs with the measured matrix and would overwrite it.
  bool record_epochs = true;
  const auto run_on = [&](Backend& backend, place::Policy policy,
                          const std::optional<comm::CommMatrix>& matrix) {
    Program p;
    built = wl.build(p, spec.params);
    p.place(policy, {}, spec.seed);
    if (matrix) p.place_using(*matrix);
    if (spec.replacement.enabled()) p.replacement(spec.replacement);
    if (spec.wait) p.wait_strategy(*spec.wait);
    if (spec.memory != mem::MemoryPolicy::Heap) p.memory_policy(spec.memory);
    RunReport rep = p.run(backend);
    res.grants = rep.grants;
    res.placed = rep.placed;
    if (record_epochs) {
      res.epochs = rep.epochs;
      res.replacements = rep.replacements;
      if (&backend == timing.get()) {
        if (tracing) trace = std::move(rep.trace);
        if (keep_metrics) res.metrics = std::move(rep.metrics);
      }
    }
    return rep.seconds;
  };

  // `fetch_run`: whether anything will actually read the fetcher's state
  // after this phase — skip the (expensive, native) emulated execution
  // otherwise.
  const auto time_phase = [&](place::Policy policy,
                              const std::optional<comm::CommMatrix>& matrix,
                              bool fetch_run) -> Stats {
    const Stats stats = sample(spec.warmup, spec.repetitions, [&] {
      return run_on(*timing, policy, matrix);
    });
    if (fetch_run && fetcher != timing.get())
      run_on(*fetcher, policy, matrix);
    return stats;
  };

  const auto check = [&](std::string& error) {
    std::string why;
    if (built.verify(*fetcher, why)) return true;
    error = why;
    return false;
  };

  // Phase 1: the requested policy on the workload's STATIC pattern.
  res.time = time_phase(spec.policy, std::nullopt, need_fetch);
  res.num_tasks = built.num_tasks;
  if (spec.verify) {
    res.verify_ran = true;
    res.verified = check(res.verify_error);
  }

  record_epochs = false;

  // Observability flags restored before the feedback phase: its re-runs
  // are not part of the written trace.
  if (tracing) {
    obs::enable_tracing(prev_trace);
    res.trace_events = trace.total_events();
    res.trace_dropped = trace.dropped;
    if (obs::write_chrome_trace_file(spec.trace_path, trace))
      std::cout << "wrote " << spec.trace_path << '\n';
  }
  if (keep_metrics) obs::enable_detailed_metrics(prev_detail);

  // Phase 2 (feedback): re-place with TreeMatch on the flow matrix the
  // runtime MEASURED during phase 1, and re-run — Algorithm 1 fed by
  // instrumentation instead of the declared pattern.
  if (spec.feedback) {
    const comm::CommMatrix measured = measured_matrix(*fetcher);
    res.feedback.measured_bytes = measured.total_volume();
    // Only verification reads the fetcher after this phase.
    res.feedback.time = time_phase(place::Policy::TreeMatch, measured,
                                   spec.verify && res.verified);
    res.feedback.ran = true;
    res.feedback.speedup = res.feedback.time.median > 0.0
                               ? res.time.median / res.feedback.time.median
                               : 0.0;
    if (spec.verify && res.verified) {
      std::string why;
      if (!check(why)) {
        res.verified = false;
        res.verify_error = "feedback run: " + why;
      }
    }
  }
  return res;
}

void write_histogram(JsonWriter& json, const std::string& key,
                     const obs::HistogramSnapshot& h) {
  json.begin_object(key);
  json.member("count", h.count);
  json.member("sum", h.sum);
  json.member("mean", h.mean());
  json.member("p50", h.quantile(0.50));
  json.member("p95", h.quantile(0.95));
  json.member("p99", h.quantile(0.99));
  // Sparse non-zero log2 buckets as [inclusive_upper_bound, count] pairs.
  json.begin_array("buckets");
  for (int i = 0; i < obs::HistogramSnapshot::kBuckets; ++i) {
    const std::uint64_t count = h.buckets[static_cast<std::size_t>(i)];
    if (count == 0) continue;
    json.begin_object();
    json.member("le", obs::HistogramSnapshot::bucket_upper(i));
    json.member("count", count);
    json.end_object();
  }
  json.end_array();
  json.end_object();
}

std::vector<CaseResult> run_sweep(const CaseSpec& base,
                                  const std::vector<place::Policy>& policies,
                                  const std::vector<std::string>& backends,
                                  bool force_trace_split) {
  std::vector<CaseResult> out;
  out.reserve(policies.size() * backends.size());
  const bool many =
      force_trace_split || policies.size() * backends.size() > 1;
  for (const std::string& backend : backends) {
    for (const place::Policy policy : policies) {
      CaseSpec spec = base;
      spec.backend = backend;
      spec.policy = policy;
      // One trace file per case: splice the case name into the path so a
      // sweep does not overwrite one file repeatedly.
      if (!spec.trace_path.empty() && many)
        spec.trace_path = trace_path_for(base.trace_path, case_name(spec));
      out.push_back(run_case(spec));
    }
  }
  return out;
}

void write_json(std::ostream& os, const std::vector<CaseResult>& results) {
  emit_document(os, "orwl_bench", nullptr, [&results](JsonWriter& json) {
    for (const CaseResult& r : results) {
      json.begin_object();
      json.member("name", case_name(r.spec));
      json.member("workload", r.spec.workload);
      json.member("backend", r.spec.backend);
      json.member("policy", place::to_string(r.spec.policy));
      json.member("topology", r.spec.backend == "runtime"
                                  ? std::string("host")
                                  : (r.spec.topo_spec.empty()
                                         ? std::string("paper_machine")
                                         : r.spec.topo_spec));
      json.member("tasks", r.spec.params.tasks);
      json.member("size", r.spec.params.size);
      json.member("iterations", r.spec.params.iterations);
      json.member("num_tasks", r.num_tasks);
      json.member("warmup", r.spec.warmup);
      json.member("repetitions", r.spec.repetitions);
      json.member("wait_strategy", r.spec.wait ? sync::to_string(*r.spec.wait)
                                               : std::string("default"));
      json.member("memory_policy", mem::to_string(r.spec.memory));
      json.member("grants", r.grants);
      json.member("placed", r.placed);
      write_stats(json, "seconds", r.time);
      json.member("verify_ran", r.verify_ran);
      json.member("verified", r.verified);
      if (!r.verify_error.empty())
        json.member("verify_error", r.verify_error);
      if (r.feedback.ran) {
        json.begin_object("feedback");
        write_stats(json, "seconds", r.feedback.time);
        json.member("speedup_vs_static", r.feedback.speedup);
        json.member("measured_bytes", r.feedback.measured_bytes);
        json.end_object();
      } else {
        json.null_member("feedback");
      }
      // Observability (harness_schema >= 3): present only when the case
      // asked for it (trace_path / collect_metrics).
      if (!r.spec.trace_path.empty()) {
        json.member("trace_path", r.spec.trace_path);
        json.member("trace_events", r.trace_events);
        json.member("trace_dropped", r.trace_dropped);
      }
      if (!r.metrics.empty()) {
        json.begin_object("metrics");
        for (const auto& [name, v] : r.metrics.counters)
          json.member(name, v);
        for (const auto& [name, v] : r.metrics.gauges)
          json.member(name, static_cast<long>(v));
        json.begin_object("histograms");
        for (const obs::HistogramSnapshot& h : r.metrics.histograms) {
          if (h.empty()) continue;
          write_histogram(json, h.name, h);
        }
        json.end_object();
        json.end_object();
      }
      // Online re-placement trace (docs/benchmarks.md "per-epoch fields").
      json.member("replacement",
                  place::to_string(r.spec.replacement.mode));
      if (r.spec.replacement.enabled()) {
        json.member("epoch_length", r.spec.replacement.epoch_length);
        json.member("drift_threshold", r.spec.replacement.drift_threshold);
        json.member("replacements", r.replacements);
        json.begin_array("epochs");
        for (const orwl::RunReport::EpochRecord& e : r.epochs) {
          json.begin_object();
          json.member("epoch", e.epoch);
          json.member("round", e.round);
          json.member("drift", e.drift);
          json.member("replaced", e.replaced);
          json.member("migrated", e.migrated);
          json.member("rebind_failures", e.rebind_failures);
          json.member("moved_locations", e.moved_locations);
          json.member("replace_seconds", e.replace_seconds);
          json.begin_array("compute_pu");
          for (const int pu : e.compute_pu)
            json.element(static_cast<double>(pu));
          json.end_array();
          json.end_object();
        }
        json.end_array();
      }
      json.end_object();
    }
  });
}

bool write_json_file(const std::string& path,
                     const std::vector<CaseResult>& results) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return false;
  }
  write_json(out, results);
  std::cout << "wrote " << path << '\n';
  return true;
}

bool write_bench_file(const std::string& path, const std::string& bench,
                      const std::function<void(JsonWriter&)>& context_extra,
                      const std::function<void(JsonWriter&)>& benchmarks) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << '\n';
    return false;
  }
  emit_document(out, bench, context_extra, benchmarks);
  std::cout << "wrote " << path << '\n';
  return true;
}

double simulated_exchange_seconds(const topo::Topology& topo,
                                  const comm::CommMatrix& m,
                                  const std::vector<int>& mapping,
                                  double exchanges_per_iteration) {
  const sim::LinkCost cost = sim::LinkCost::defaults_for(topo);
  sim::Workload load;
  const int n = m.order();
  for (int i = 0; i < n; ++i) load.threads.push_back({1e5, 1e5, 0});
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      if (m.at(i, j) > 0)
        load.edges.push_back({i, j, exchanges_per_iteration * m.at(i, j)});
  sim::Placement place;
  place.compute_pu = mapping;
  place.control_pu.assign(static_cast<std::size_t>(n), -1);
  place.data_home_pu = mapping;
  // Unbound entries would be re-placed randomly; pin them to PU 0 so the
  // quality tables stay deterministic.
  for (auto& pu : place.compute_pu)
    if (pu < 0) pu = 0;
  for (auto& pu : place.data_home_pu)
    if (pu < 0) pu = 0;
  return sim::simulate(topo, cost, load, place).total_seconds;
}

}  // namespace orwl::harness
