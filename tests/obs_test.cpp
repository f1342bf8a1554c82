// Tests for the obs:: layer: the per-thread trace ring (wraparound drops
// the oldest events and counts them, disabled tracing records nothing),
// the metrics registry (log2 histogram bucketing/quantiles, get-or-create
// stability), the Chrome trace exporter (balanced spans even from torn
// input), the Instrument::resize construction-phase contract, and the
// counted waiter overload feeding the wait-length histograms.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "orwl/instrument.h"
#include "orwl/runtime.h"
#include "support/assert.h"
#include "sync/waiter.h"

namespace orwl {
namespace {

std::size_t count_occurrences(const std::string& hay,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = hay.find(needle); at != std::string::npos;
       at = hay.find(needle, at + needle.size()))
    ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Trace ring
// ---------------------------------------------------------------------------

// Flips the process-global gate on for the test body and leaves clean
// rings behind — the flag and rings are shared process state.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = obs::enable_tracing(true);
    obs::reset();
  }
  void TearDown() override {
    obs::reset();
    obs::enable_tracing(prev_);
  }
  bool prev_ = false;
};

TEST_F(TraceTest, RecordsInTimestampOrder) {
  obs::trace(obs::EventKind::Grant, 7);
  obs::trace(obs::EventKind::Release, 8);
  obs::trace(obs::EventKind::EventPop, 9);
  const obs::TraceData data = obs::collect();
  EXPECT_EQ(data.dropped, 0u);
  ASSERT_EQ(data.threads.size(), 1u);
  const obs::TraceThread& t = data.threads[0];
  ASSERT_EQ(t.events.size(), 3u);
  EXPECT_EQ(t.events[0].kind, obs::EventKind::Grant);
  EXPECT_EQ(t.events[0].arg, 7u);
  EXPECT_EQ(t.events[2].kind, obs::EventKind::EventPop);
  for (std::size_t i = 1; i < t.events.size(); ++i)
    EXPECT_GE(t.events[i].ts_ns, t.events[i - 1].ts_ns);
  for (const obs::TraceEvent& ev : t.events) EXPECT_EQ(ev.tid, t.tid);
}

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  obs::enable_tracing(false);
  for (int i = 0; i < 1000; ++i) obs::trace(obs::EventKind::Grant, 1);
  EXPECT_EQ(obs::buffered_events(), 0u);
  EXPECT_TRUE(obs::collect().empty());
}

TEST_F(TraceTest, WraparoundDropsOldestAndCounts) {
  const std::size_t cap = obs::ring_capacity();
  const std::size_t extra = 100;
  const std::uint64_t before =
      obs::global_registry().counter("trace.dropped").read();
  for (std::size_t i = 0; i < cap + extra; ++i)
    obs::trace(obs::EventKind::Grant, i);
  EXPECT_EQ(obs::buffered_events(), cap);
  const obs::TraceData data = obs::collect();
  EXPECT_EQ(data.dropped, extra);
  ASSERT_EQ(data.threads.size(), 1u);
  const std::vector<obs::TraceEvent>& evs = data.threads[0].events;
  ASSERT_EQ(evs.size(), cap);
  // The OLDEST events are the ones overwritten: args 0..extra-1 are gone.
  EXPECT_EQ(evs.front().arg, extra);
  EXPECT_EQ(evs.back().arg, cap + extra - 1);
  EXPECT_EQ(obs::global_registry().counter("trace.dropped").read(),
            before + extra);
}

TEST_F(TraceTest, CollectReportsDropDeltasNotTotals) {
  const std::size_t cap = obs::ring_capacity();
  for (std::size_t i = 0; i < cap + 50; ++i)
    obs::trace(obs::EventKind::Grant, i);
  EXPECT_EQ(obs::collect().dropped, 50u);
  // Nothing new recorded: a second collect must not re-report the same
  // overwrites (or the trace.dropped metric would double-count).
  EXPECT_EQ(obs::collect().dropped, 0u);
  obs::trace(obs::EventKind::Grant, 1);
  EXPECT_EQ(obs::collect().dropped, 1u);
}

TEST_F(TraceTest, ThreadsCollectSeparately) {
  obs::trace(obs::EventKind::Grant, 1);
  std::thread other([] { obs::trace(obs::EventKind::Release, 2); });
  other.join();
  const obs::TraceData data = obs::collect();
  ASSERT_EQ(data.threads.size(), 2u);
  EXPECT_NE(data.threads[0].tid, data.threads[1].tid);
  for (const obs::TraceThread& t : data.threads) {
    ASSERT_EQ(t.events.size(), 1u);
    EXPECT_EQ(t.events[0].tid, t.tid);
  }
}

TEST(TraceTables, SpanTablesAreConsistent) {
  const int n = static_cast<int>(obs::EventKind::kCount);
  for (int i = 0; i < n; ++i) {
    const auto k = static_cast<obs::EventKind>(i);
    EXPECT_STRNE(obs::to_string(k), "");
    EXPECT_FALSE(obs::is_span_begin(k) && obs::is_span_end(k));
    if (obs::is_span_end(k)) {
      const obs::EventKind b = obs::begin_of(k);
      EXPECT_TRUE(obs::is_span_begin(b));
      EXPECT_STREQ(obs::span_name(b), obs::span_name(k));
    }
  }
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

obs::TraceEvent ev(std::uint64_t ts_ns, obs::EventKind kind,
                   std::int32_t tid, std::uint64_t arg = 0) {
  return {ts_ns, arg, tid, kind};
}

TEST(ChromeExport, BalancedSpansAndMicrosecondTimestamps) {
  obs::TraceData data;
  data.threads.push_back(
      {3,
       "w3",
       {ev(1000, obs::EventKind::AcquireBegin, 3, 5),
        ev(2500, obs::EventKind::AcquireEnd, 3, 5),
        ev(2600, obs::EventKind::Grant, 3, 5)}});
  data.dropped = 4;
  std::ostringstream os;
  obs::write_chrome_trace(os, data);
  const std::string out = os.str();
  EXPECT_EQ(count_occurrences(out, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(count_occurrences(out, "\"ph\":\"E\""), 1u);
  EXPECT_EQ(count_occurrences(out, "\"ph\":\"i\""), 1u);
  EXPECT_NE(out.find("\"name\":\"w3\""), std::string::npos);
  // ts is microseconds relative to the earliest event: 2500ns - 1000ns.
  EXPECT_NE(out.find("\"ts\":1.500"), std::string::npos);
  EXPECT_NE(out.find("\"dropped\":4"), std::string::npos);
}

TEST(ChromeExport, SanitizesTornSpans) {
  // Ring overwrites can orphan an End (its Begin was dropped) and leave a
  // Begin unclosed (the run stopped mid-span). The exporter must still
  // emit balanced B/E.
  obs::TraceData data;
  data.threads.push_back(
      {0,
       "torn",
       {ev(10, obs::EventKind::AcquireEnd, 0),     // orphan -> instant
        ev(20, obs::EventKind::EpochBegin, 0),     // unclosed -> closed
        ev(30, obs::EventKind::Grant, 0)}});
  std::ostringstream os;
  obs::write_chrome_trace(os, data);
  const std::string out = os.str();
  EXPECT_EQ(count_occurrences(out, "\"ph\":\"B\""),
            count_occurrences(out, "\"ph\":\"E\""));
  EXPECT_EQ(count_occurrences(out, "\"ph\":\"B\""), 1u);
  EXPECT_EQ(count_occurrences(out, "\"ph\":\"i\""), 2u);
}

TEST(ChromeExport, EscapesThreadNames) {
  obs::TraceData data;
  data.threads.push_back(
      {0, "quo\"te\\back", {ev(1, obs::EventKind::Grant, 0)}});
  std::ostringstream os;
  obs::write_chrome_trace(os, data);
  EXPECT_NE(os.str().find("quo\\\"te\\\\back"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(ObsMetrics, HistogramLog2Bucketing) {
  obs::Histogram h;
  for (const std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 1000ull})
    h.record(v);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 6u);
  EXPECT_EQ(s.sum, 1010u);
  EXPECT_EQ(s.buckets[0], 1u);   // exactly zero
  EXPECT_EQ(s.buckets[1], 1u);   // 1
  EXPECT_EQ(s.buckets[2], 2u);   // 2, 3
  EXPECT_EQ(s.buckets[3], 1u);   // 4
  EXPECT_EQ(s.buckets[10], 1u);  // 1000 in [512, 1023]
  EXPECT_DOUBLE_EQ(s.mean(), 1010.0 / 6.0);
  EXPECT_EQ(s.quantile(0.0), 0u);
  EXPECT_EQ(s.quantile(0.5), obs::HistogramSnapshot::bucket_upper(2));
  EXPECT_EQ(s.quantile(1.0), 1023u);
}

TEST(ObsMetrics, BucketUpperBounds) {
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(0), 0u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(1), 1u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(2), 3u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(10), 1023u);
  EXPECT_EQ(obs::HistogramSnapshot::bucket_upper(64), ~0ull);
}

TEST(ObsMetrics, HistogramConcurrentRecords) {
  obs::Histogram h;
  constexpr int kThreads = 8, kPer = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&h] {
      for (int i = 0; i < kPer; ++i)
        h.record(static_cast<std::uint64_t>(i & 255));
    });
  for (std::thread& t : threads) t.join();
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kPer);
}

TEST(ObsMetrics, RegistryGetOrCreateIsStable) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("same");
  a.add(3);
  EXPECT_EQ(reg.counter("same").read(), 3u);   // same object, not a new one
  EXPECT_EQ(&reg.counter("same"), &a);
  reg.gauge("g").set(-5);
  reg.histogram("h").record(9);
  reg.counter("aardvark").add(1);
  const obs::RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "aardvark");  // sorted by name
  EXPECT_EQ(snap.counters[1].first, "same");
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -5);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].name, "h");
}

TEST(ObsMetrics, DumpMetricsFormat) {
  obs::Registry reg;
  reg.counter("c").add(2);
  reg.gauge("g").set(7);
  (void)reg.histogram("empty");
  std::ostringstream os;
  obs::dump_metrics(os, reg.snapshot());
  const std::string out = os.str();
  EXPECT_NE(out.find("counter c 2"), std::string::npos);
  EXPECT_NE(out.find("gauge g 7"), std::string::npos);
  // A histogram that never recorded still dumps, with no bucket listed.
  const std::size_t hist = out.find("hist empty ");
  ASSERT_NE(hist, std::string::npos) << out;
  const std::string line = out.substr(hist, out.find('\n', hist) - hist);
  EXPECT_NE(line.find(" count=0 "), std::string::npos) << line;
  EXPECT_TRUE(line.ends_with(" buckets=-")) << line;
}

TEST(ObsMetrics, DetailedMetricsFlagRoundTrips) {
  const bool prev = obs::enable_detailed_metrics(true);
  EXPECT_TRUE(obs::detailed_metrics_enabled());
  EXPECT_TRUE(obs::enable_detailed_metrics(prev));
  EXPECT_EQ(obs::detailed_metrics_enabled(), prev);
}

// ---------------------------------------------------------------------------
// Instrument::resize construction-phase contract
// ---------------------------------------------------------------------------

TEST(InstrumentContract, ResizeAllowedWhilePristine) {
  obs::Registry reg;
  Instrument ins(2, reg);
  EXPECT_TRUE(ins.pristine());
  EXPECT_NO_THROW(ins.resize(8));
  EXPECT_NO_THROW(ins.resize(16));
}

TEST(InstrumentContract, ResizeThrowsAfterGrantRecorded) {
  obs::Registry reg;
  Instrument ins(2, reg);
  ins.record_grant(AccessMode::Write);
  EXPECT_FALSE(ins.pristine());
  EXPECT_THROW(ins.resize(4), ContractError);
}

TEST(InstrumentContract, ResizeThrowsAfterFlowRecorded) {
  obs::Registry reg;
  Instrument ins(4, reg);
  ins.record_flow(0, 1, 64);
  EXPECT_FALSE(ins.pristine());
  EXPECT_THROW(ins.resize(8), ContractError);
}

// ---------------------------------------------------------------------------
// Counted waiter (WaitLength)
// ---------------------------------------------------------------------------

TEST(WaitLength, FastPathLeavesLengthZeroed) {
  std::atomic<std::uint32_t> word{1};
  sync::WaitLength len{5, 5};  // poisoned: must be zeroed on the fast path
  const std::uint32_t v =
      sync::wait_while_equal(word, 0u, sync::WaitStrategy::spin(), &len);
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(len.rounds, 0u);
  EXPECT_EQ(len.parks, 0u);
}

TEST(WaitLength, SpinNeverParks) {
  std::atomic<std::uint32_t> word{0};
  std::thread waker([&word] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // order: release — pairs with the waiter's acquire loads.
    word.store(1, std::memory_order_release);
    sync::notify_all(word);
  });
  sync::WaitLength len;
  const std::uint32_t v =
      sync::wait_while_equal(word, 0u, sync::WaitStrategy::spin(), &len);
  waker.join();
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(len.parks, 0u);
}

TEST(WaitLength, BlockNeverCountsSpinRounds) {
  std::atomic<std::uint32_t> word{0};
  std::thread waker([&word] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    // order: release — pairs with the waiter's acquire loads.
    word.store(1, std::memory_order_release);
    sync::notify_all(word);
  });
  sync::WaitLength len;
  const std::uint32_t v =
      sync::wait_while_equal(word, 0u, sync::WaitStrategy::block(), &len);
  waker.join();
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(len.rounds, 0u);
}

// ---------------------------------------------------------------------------
// Runtime integration: per-handle histograms and the detailed gate
// ---------------------------------------------------------------------------

std::uint64_t histogram_count(const obs::RegistrySnapshot& snap,
                              const std::string& prefix) {
  std::uint64_t n = 0;
  for (const obs::HistogramSnapshot& h : snap.histograms)
    if (h.name.rfind(prefix, 0) == 0) n += h.count;
  return n;
}

void run_two_writers() {
  RuntimeOptions opts;
  opts.record_flows = false;
  Runtime rt(opts);
  const LocationId loc = rt.add_location(64);
  for (int i = 0; i < 2; ++i)
    rt.add_task("w" + std::to_string(i), [i](TaskContext& ctx) {
      Handle& h = ctx.handle(i);
      for (int r = 0; r < 50; ++r) {
        h.acquire();
        if (r + 1 == 50)
          h.release();
        else
          h.release_and_renew();
      }
    });
  for (int i = 0; i < 2; ++i) rt.add_handle(i, loc, AccessMode::Write);
  rt.run();
  const obs::RegistrySnapshot snap = rt.metrics().snapshot();
  // Wait-length recording is always on: one sample per acquire.
  EXPECT_EQ(histogram_count(snap, "orwl.wait_rounds"), 100u);
  // Acquire-latency clock reads are gated behind the detailed flag.
  const std::uint64_t latency = histogram_count(snap, "orwl.acquire_ns");
  if (obs::detailed_metrics_enabled())
    EXPECT_EQ(latency, 100u);
  else
    EXPECT_EQ(latency, 0u);
  EXPECT_EQ(rt.stats().write_grants(), 100u);
}

TEST(RuntimeMetrics, WaitHistogramsAlwaysOnLatencyGated) {
  const bool prev = obs::enable_detailed_metrics(false);
  run_two_writers();
  obs::enable_detailed_metrics(true);
  run_two_writers();
  obs::enable_detailed_metrics(prev);
}

}  // namespace
}  // namespace orwl
