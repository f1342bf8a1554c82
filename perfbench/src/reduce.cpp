#include <algorithm>
#include <cmath>
#include <optional>

#include "perfbench.h"

namespace perfbench {

using orwl::obs::EventKind;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

TraceTotals reduce_trace(const orwl::obs::TraceData& trace) {
  TraceTotals out;
  for (const orwl::obs::TraceThread& th : trace.threads) {
    // Events of one thread are in timestamp order; an acquire span is an
    // AcquireBegin followed by its AcquireEnd on the same thread.
    std::optional<std::uint64_t> begin;
    for (const orwl::obs::TraceEvent& ev : th.events) {
      switch (ev.kind) {
        case EventKind::AcquireBegin:
          begin = ev.ts_ns;
          break;
        case EventKind::AcquireEnd:
          if (begin && ev.ts_ns >= *begin)
            out.acquire_ns += static_cast<double>(ev.ts_ns - *begin);
          begin.reset();
          break;
        case EventKind::Grant:
          ++out.grants;
          break;
        case EventKind::Release:
          ++out.releases;
          break;
        case EventKind::EventPop:
          out.hop_grants += ev.arg;
          break;
        case EventKind::GrantBatch:
          out.batched_reads += ev.arg;
          break;
        default:
          break;
      }
    }
  }
  return out;
}

void pool_histograms(const orwl::obs::RegistrySnapshot& snap,
                     const std::string& prefix,
                     orwl::obs::HistogramSnapshot& into) {
  for (const orwl::obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name.rfind(prefix, 0) != 0) continue;
    into.count += h.count;
    into.sum += h.sum;
    for (std::size_t i = 0; i < into.buckets.size(); ++i)
      into.buckets[i] += h.buckets[i];
  }
}

std::uint64_t counter_value(const orwl::obs::RegistrySnapshot& snap,
                            const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return 0;
}

}  // namespace perfbench
