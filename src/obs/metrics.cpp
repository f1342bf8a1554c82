#include "obs/metrics.h"

#include <algorithm>

namespace orwl::obs {

std::uint64_t HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-quantile sample, 1-based; walk buckets until reached.
  const auto rank =
      static_cast<std::uint64_t>(q * static_cast<double>(count - 1)) + 1;
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets[static_cast<std::size_t>(i)];
    if (seen >= rank) return bucket_upper(i);
  }
  return bucket_upper(kBuckets - 1);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  for (int i = 0; i < HistogramSnapshot::kBuckets; ++i) {
    // order: relaxed — exact after writers quiesced, lower bound
    // concurrently (the ShardedCounter contract).
    const std::uint64_t n =
        buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
    out.buckets[static_cast<std::size_t>(i)] = n;
    out.count += n;
  }
  out.sum = sum_.load(std::memory_order_relaxed);
  return out;
}

namespace {

template <class T>
T& get_or_create(std::map<std::string, std::unique_ptr<T>, std::less<>>& slots,
                 const std::string& name) {
  std::unique_ptr<T>& slot = slots[name];
  if (!slot) slot = std::make_unique<T>();
  return *slot;
}

}  // namespace

Counter& Registry::counter(const std::string& name) {
  sync::LockGuard lock(mu_);
  return get_or_create(counters_, name);
}

Gauge& Registry::gauge(const std::string& name) {
  sync::LockGuard lock(mu_);
  return get_or_create(gauges_, name);
}

Histogram& Registry::histogram(const std::string& name) {
  sync::LockGuard lock(mu_);
  return get_or_create(histograms_, name);
}

RegistrySnapshot Registry::snapshot() const {
  // Each Slots map iterates in name order, so the snapshot comes sorted.
  RegistrySnapshot out;
  sync::LockGuard lock(mu_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_)
    out.counters.emplace_back(name, c->read());
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_)
    out.gauges.emplace_back(name, g->read());
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot snap = h->snapshot();
    snap.name = name;
    out.histograms.push_back(std::move(snap));
  }
  return out;
}

Registry& global_registry() {
  static Registry* reg = new Registry;  // leaked: usable during shutdown
  return *reg;
}

}  // namespace orwl::obs
