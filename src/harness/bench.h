#pragma once
// Benchmark harness: one shared driver for timing registered workloads
// across placement policies and backends, replacing the hand-rolled
// repetition/timing/output loops the bench/ binaries used to carry.
//
// A case = (workload, params, policy, backend). The driver runs
// warmup + repetitions fresh Program builds, summarizes the timings as
// median/MAD (harness/stats.h), optionally verifies the numerical result
// against the workload's sequential reference, and — the paper's actual
// contribution — can close the FEEDBACK loop: take the measured
// communication matrix the ORWL runtime instrumented during the
// static-pattern runs, re-place with TreeMatch on that measured matrix,
// re-run, and report the speedup. Results serialize to the BENCH_*.json
// machine-readable format via harness/json.h.

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "comm/comm_matrix.h"
#include "harness/stats.h"
#include "mem/policy.h"
#include "orwl/backend.h"
#include "place/placement.h"
#include "place/replace.h"
#include "sync/wait_strategy.h"
#include "workloads/workloads.h"

namespace orwl::harness {

class JsonWriter;

/// One benchmark configuration.
struct CaseSpec {
  std::string workload;
  workloads::Params params;
  place::Policy policy = place::Policy::TreeMatch;
  /// "runtime" (host execution) or "sim" (NUMA cost model prediction).
  std::string backend = "sim";
  /// Synthetic topology for the sim backend ("pack:24 core:8 pu:1"-style);
  /// empty = the paper machine. Ignored by the runtime backend.
  std::string topo_spec;
  int warmup = 1;
  int repetitions = 3;
  /// Run the measured-matrix feedback placement after the static runs.
  bool feedback = false;
  /// Online adaptive re-placement during every run (place/replace.h):
  /// off (default), every_epoch, or on_drift with the policy's epoch
  /// length and drift threshold.
  place::ReplacementPolicy replacement{};
  /// Check the result against the workload's sequential reference.
  bool verify = true;
  std::uint64_t seed = 42;
  /// Wait strategy (Program::wait_strategy): block, spin, or
  /// spin_then_park. Unset = the runtime default (spin_then_park(256)) on
  /// the runtime backend; the sim backend charges unset as block and any
  /// explicit non-block strategy without the futex park/wake pair.
  std::optional<sync::WaitStrategy> wait;
  /// Location-memory policy (Program::memory_policy): heap (default),
  /// numa_local, or numa_interleave. Applied to both backends — the
  /// runtime places real pages, the sim models the effect.
  mem::MemoryPolicy memory = mem::MemoryPolicy::Heap;
  /// Non-empty: turn tracing on for this case's runs and write the last
  /// static-phase run's Chrome/Perfetto trace (obs/export.h) here. The
  /// recording overhead is part of the measured time — trace OR measure,
  /// not both at once.
  std::string trace_path;
  /// Turn on detailed metrics (per-handle acquire-latency histograms) and
  /// keep the run's registry snapshot in CaseResult::metrics / the JSON.
  bool collect_metrics = false;
};

/// Timings of the feedback (measured-matrix TreeMatch) phase.
struct FeedbackResult {
  bool ran = false;
  Stats time;
  /// static-placement median / feedback-placement median; > 1 means the
  /// measured matrix beat the static pattern.
  double speedup = 0.0;
  /// Total volume of the measured flow matrix fed back to Algorithm 1.
  double measured_bytes = 0.0;
};

struct CaseResult {
  CaseSpec spec;
  int num_tasks = 0;
  Stats time;  ///< static-pattern placement timings
  /// Runtime backend only: set-up per static-phase execution, as perfbench
  /// defines `setup_s` — the program build and placement plus Program::run
  /// wall time minus RunReport::seconds. All zero on the sim backend.
  Stats setup;
  std::uint64_t grants = 0;
  bool placed = false;
  bool verify_ran = false;
  bool verified = false;
  std::string verify_error;
  FeedbackResult feedback;
  /// Online re-placement trace of the last timed run (empty when the
  /// spec's replacement policy is off): one record per epoch boundary.
  std::vector<orwl::RunReport::EpochRecord> epochs;
  int replacements = 0;  ///< boundaries at which Algorithm 1 re-ran
  /// Metric snapshot of the last static-phase run (CaseSpec
  /// collect_metrics; also filled when trace_path is set).
  obs::RegistrySnapshot metrics;
  /// Events in / dropped from the written trace (CaseSpec trace_path).
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
};

/// Run one case end to end. Throws ContractError on unknown workload /
/// backend names.
CaseResult run_case(const CaseSpec& spec);

/// Cartesian sweep of `base` over policies x backends. When the sweep
/// has several cases and `base.trace_path` is set, each case's trace
/// goes to its own file (the case name is spliced into the path);
/// `force_trace_split` makes that happen even for a single-case sweep —
/// for callers that run several sweeps off the same base (workload /
/// memory / replacement twins) and would otherwise overwrite one file.
std::vector<CaseResult> run_sweep(const CaseSpec& base,
                                  const std::vector<place::Policy>& policies,
                                  const std::vector<std::string>& backends,
                                  bool force_trace_split = false);

/// Serialize results in the BENCH_*.json layout: a context object plus a
/// "benchmarks" array, one entry per case.
void write_json(std::ostream& os, const std::vector<CaseResult>& results);

/// write_json to `path`; prints "wrote PATH", complains to stderr and
/// returns false when the file cannot be opened.
bool write_json_file(const std::string& path,
                     const std::vector<CaseResult>& results);

/// Emit an arbitrary BENCH_*.json document to `path`: the standard
/// context object (bench name, date, host, schema version, plus whatever
/// `context_extra` adds) followed by a "benchmarks" array filled by
/// `benchmarks` (one begin_object/members/end_object per entry). This is
/// THE file-emission path for every bench binary, so the layout cannot
/// drift between them. Same success/failure behaviour as
/// write_json_file.
bool write_bench_file(const std::string& path, const std::string& bench,
                      const std::function<void(JsonWriter&)>& context_extra,
                      const std::function<void(JsonWriter&)>& benchmarks);

/// "workload/backend/policy" display name of a case.
std::string case_name(const CaseSpec& spec);

/// Serialize one histogram snapshot as a JSON object member `key`:
/// count/sum/mean/p50/p95/p99 plus the sparse non-zero log2 buckets as
/// [upper_bound, count] pairs. Shared by write_json and the bench
/// binaries so the layout cannot drift.
void write_histogram(JsonWriter& json, const std::string& key,
                     const obs::HistogramSnapshot& h);

/// Simulated seconds of one iteration of a communication-bound exchange
/// workload under `mapping` — light compute, `exchanges_per_iteration`
/// round trips of every matrix edge. Shared by the mapping-quality benches
/// so they stop hand-rolling sim::Workload construction.
double simulated_exchange_seconds(const topo::Topology& topo,
                                  const comm::CommMatrix& m,
                                  const std::vector<int>& mapping,
                                  double exchanges_per_iteration = 1024.0);

}  // namespace orwl::harness
