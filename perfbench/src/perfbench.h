#pragma once
// perfbench: the repository benchmark. main.cpp runs one workload
// (closed loop, one Program execution at a time) and reports the
// end-to-end metrics; a separate traced run adds the per-layer metrics
// from rungs.cpp (isolated loops on one layer's public API) and reduce.cpp
// (reductions of the spans and counters the runtime already exports).

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace perfbench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Median of `v` (mean of the two middle values for even sizes); 0 when
/// empty. Takes a copy: callers keep their sample order.
double median(std::vector<double> v);

/// Nearest-rank percentile, q in (0, 1]; 0 when empty.
double percentile(std::vector<double> v, double q);

/// The layer rungs, each the median of several repetitions: ns per
/// operation, except runtime.spawn_join_s (seconds per Runtime::run).
std::vector<Metric> run_rungs();

/// What one traced execution's spans say.
struct TraceTotals {
  double acquire_ns = 0.0;         ///< summed AcquireBegin→AcquireEnd spans
  std::uint64_t grants = 0;        ///< Grant events
  std::uint64_t releases = 0;      ///< Release events
  std::uint64_t hop_grants = 0;    ///< grants drained by control threads
                                   ///< (sum of EventPop batch sizes)
  std::uint64_t batched_reads = 0; ///< read grants announced in GrantBatch
                                   ///< runs (sum of run sizes)
};

TraceTotals reduce_trace(const orwl::obs::TraceData& trace);

/// Add every histogram of `snap` whose name starts with `prefix`
/// ("orwl.acquire_ns/", "orwl.wait_rounds/") into `into`.
void pool_histograms(const orwl::obs::RegistrySnapshot& snap,
                     const std::string& prefix,
                     orwl::obs::HistogramSnapshot& into);

/// Value of the counter `name` in `snap`; 0 when absent.
std::uint64_t counter_value(const orwl::obs::RegistrySnapshot& snap,
                            const std::string& name);

}  // namespace perfbench
