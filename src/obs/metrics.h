#pragma once
// Metrics registry: named counters, gauges, and log2-bucketed histograms.
//
// Counters follow the sync::ShardedCounter idiom — cache-line-padded
// shards, one uncontended relaxed fetch_add per record — so instrumented
// hot paths (grant announcement runs with a location queue lock held) stay
// cheap. Histograms are per handle and recorded by that handle's task
// thread alone, so they keep one unsharded bucket array. Every record is a
// relaxed atomic: reads are exact once the writers have quiesced, and a
// concurrent read is a consistent lower bound.
//
// Naming scheme (docs/observability.md): dot-separated, lower-case,
// subsystem first — "orwl.grants.read", "orwl.wait_rounds/h3",
// "trace.dropped". A per-instance suffix ("/h<id>") comes last.
//
// Metric objects returned by Registry::counter()/gauge()/histogram() are
// stable references, valid for the registry's lifetime — look up once at
// construction, then record lock-free.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "support/thread_annotations.h"
#include "sync/mutex.h"
#include "sync/sharded_counter.h"

namespace orwl::obs {

/// Monotonic named counter (a thin wrapper keeping the sharded idiom).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_.add(n); }
  /// Exact after writers quiesced, lower bound concurrently.
  [[nodiscard]] std::uint64_t read() const noexcept { return value_.read(); }

 private:
  sync::ShardedCounter value_;
};

/// Last-written named value (writes are rare — epoch boundaries, config).
class Gauge {
 public:
  void set(std::int64_t v) noexcept {
    // order: relaxed — gauges carry no payload to publish; report readers
    // are ordered by the quiesce that precedes them.
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    value_.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t read() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Point-in-time histogram state (also the exchange format for exporters
/// and the harness JSON).
struct HistogramSnapshot {
  /// Bucket i counts values with bit_width(v) == i: bucket 0 is exactly
  /// zero, bucket i >= 1 covers [2^(i-1), 2^i - 1].
  static constexpr int kBuckets = 65;

  std::string name;
  std::uint64_t count = 0;  ///< total recorded values
  std::uint64_t sum = 0;    ///< sum of recorded values
  std::array<std::uint64_t, kBuckets> buckets{};

  [[nodiscard]] bool empty() const { return count == 0; }
  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// Inclusive upper bound of bucket i (0, 1, 3, 7, ...).
  [[nodiscard]] static std::uint64_t bucket_upper(int i) {
    return i == 0 ? 0 : (i >= 64 ? ~0ull : (1ull << i) - 1);
  }
  /// Upper bound of the bucket holding the q-quantile (q in [0,1]).
  [[nodiscard]] std::uint64_t quantile(double q) const;
};

/// log2-bucketed histogram of non-negative integer samples (latencies in
/// ns, wait-spin rounds, batch sizes). Unsharded: every runtime histogram
/// has one writer (the owning handle's task thread, in Handle::acquire), so
/// shards would only add memory to zero and sum. Cache-line aligned so the
/// histograms of handles owned by different threads never share a line.
/// Records stay relaxed atomics, so concurrent writers never lose a sample.
class alignas(sync::kCacheLine) Histogram {
 public:
  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(std::uint64_t v) noexcept {
    // order: relaxed — exact after the writers quiesce, lower bound
    // concurrently (the ShardedCounter contract).
    buckets_[std::bit_width(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  /// Read the buckets (exact after writers quiesced). `name` is stamped by
  /// Registry::snapshot(); direct callers may leave it empty.
  [[nodiscard]] HistogramSnapshot snapshot() const;

 private:
  std::array<std::atomic<std::uint64_t>, HistogramSnapshot::kBuckets>
      buckets_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Everything a registry knew at one quiescent point, sorted by name.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, std::int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

/// Named metric store. get-or-create lookups take a mutex (do them at
/// construction time); the returned references record lock-free and stay
/// valid for the registry's lifetime.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  [[nodiscard]] Histogram& histogram(const std::string& name);

  /// Zero-valued metrics are kept: a counter that never fired is signal.
  [[nodiscard]] RegistrySnapshot snapshot() const;

 private:
  template <class T>
  using Slots = std::vector<std::pair<std::string, std::unique_ptr<T>>>;

  mutable sync::Mutex mu_;
  Slots<Counter> counters_ ORWL_GUARDED_BY(mu_);
  Slots<Gauge> gauges_ ORWL_GUARDED_BY(mu_);
  Slots<Histogram> histograms_ ORWL_GUARDED_BY(mu_);
};

/// Process-global registry for metrics with no natural owner (the
/// `trace.dropped` counter). Runtime-scoped metrics live in the Runtime's
/// own Registry so concurrent runtimes and tests stay isolated.
[[nodiscard]] Registry& global_registry();

// --- detailed-metrics gate ---------------------------------------------------
// Per-handle acquire-latency histograms need two clock reads per acquire;
// that is cheap but not free, so it sits behind its own runtime flag
// (enabled by `orwl_bench --metrics` / trace runs). Wait-round counts are
// a by-product of the existing spin loop and are recorded unconditionally.

namespace detail {
inline std::atomic<bool> g_detailed_metrics{false};
}  // namespace detail

[[nodiscard]] inline bool detailed_metrics_enabled() noexcept {
  // order: relaxed — gates best-effort measurement only; flips happen at
  // run boundaries (see obs/trace.h for the same reasoning).
  return detail::g_detailed_metrics.load(std::memory_order_relaxed);
}

/// Flip the detailed-metrics gate. Returns the previous value.
inline bool enable_detailed_metrics(bool on) noexcept {
  return detail::g_detailed_metrics.exchange(on, std::memory_order_relaxed);
}

}  // namespace orwl::obs
