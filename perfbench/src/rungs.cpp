// Layer rungs: isolated loops on one layer's public API, each shaped like
// the workload whose end-to-end time it should explain (the map is in
// perfbench/README.md). Every rung reports the median of kReps
// repetitions.

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "orwl/backend.h"
#include "orwl/events.h"
#include "orwl/program.h"
#include "orwl/queue.h"
#include "orwl/runtime.h"
#include "perfbench.h"
#include "support/assert.h"
#include "support/time.h"
#include "sync/wait_strategy.h"
#include "sync/waiter.h"

namespace perfbench {

namespace {

using namespace orwl;

constexpr int kReps = 9;

template <class F>
double median_of(int reps, F&& once) {
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) v.push_back(once());
  return median(std::move(v));
}

// sync: one 32-bit word handed back and forth between two threads through
// wait_while_equal / notify_one; ns per handoff.
double word_handoff_ns(sync::WaitStrategy ws) {
  constexpr std::uint32_t kHandoffs = 20000;
  std::atomic<std::uint32_t> word{0};
  std::thread peer([&word, ws] {
    for (std::uint32_t v = 0; v < kHandoffs; v += 2) {
      (void)sync::wait_while_equal(word, v, ws);
      word.store(v + 2, std::memory_order_release);
      sync::notify_one(word);
    }
  });
  WallTimer timer;
  for (std::uint32_t v = 1; v < kHandoffs; v += 2) {
    word.store(v, std::memory_order_release);
    sync::notify_one(word);
    (void)sync::wait_while_equal(word, v, ws);
  }
  const double s = timer.seconds();
  peer.join();
  return s * 1e9 / kHandoffs;
}

// queue: single-thread release_and_renew cycle of two exclusive owners;
// ns per cycle.
double queue_renew_ns() {
  constexpr int kCycles = 200000;
  GrantFn sink([](Request&) {});
  FifoQueue q(&sink);
  Request slots[2];
  slots[0].mode = AccessMode::Write;
  slots[1].mode = AccessMode::Write;
  q.insert(slots[0]);
  int cur = 0;
  WallTimer timer;
  for (int i = 0; i < kCycles; ++i) {
    q.release_and_renew(slots[cur], slots[cur ^ 1]);
    cur ^= 1;
  }
  return timer.seconds() * 1e9 / kCycles;
}

// queue: one writer then a run of three readers cycling on one FifoQueue,
// read runs announced the way the runtime configures the queue; ns per
// grant.
double queue_read_run_ns() {
  constexpr int kCycles = 50000;
  constexpr int kOwners = 4;  // owner 0 writes, 1..3 read
  std::uint64_t grants = 0;
  GrantFn sink([&grants](Request&) { ++grants; });
  FifoQueue q(&sink);
  q.set_batch_grants(RuntimeOptions{}.batch_grants);
  Request reqs[kOwners][2];
  for (int i = 0; i < kOwners; ++i)
    for (Request& r : reqs[i])
      r.mode = i == 0 ? AccessMode::Write : AccessMode::Read;
  for (int i = 0; i < kOwners; ++i) q.insert(reqs[i][0]);
  int cur = 0;
  WallTimer timer;
  for (int c = 0; c < kCycles; ++c) {
    for (int i = 0; i < kOwners; ++i)
      q.release_and_renew(reqs[i][cur], reqs[i][cur ^ 1]);
    cur ^= 1;
  }
  const double s = timer.seconds();
  ORWL_CHECK_MSG(grants >= static_cast<std::uint64_t>(kCycles) * kOwners,
                 "read-run rung granted " << grants << " times");
  return s * 1e9 / static_cast<double>(grants);
}

/// `writers` tasks renewing a Write handle each on one location, raw
/// Runtime; seconds of Runtime::run.
double run_writers(RuntimeOptions opts, int writers, int rounds) {
  Runtime rt(opts);
  const LocationId loc = rt.add_location(64);
  for (int i = 0; i < writers; ++i) {
    rt.add_task("w" + std::to_string(i), [i, rounds](TaskContext& ctx) {
      Handle& h = ctx.handle(i);
      for (int r = 0; r < rounds; ++r) {
        h.acquire();
        if (r + 1 == rounds)
          h.release();
        else
          h.release_and_renew();
      }
    });
  }
  for (int i = 0; i < writers; ++i) rt.add_handle(i, loc, AccessMode::Write);
  WallTimer timer;
  rt.run();
  return timer.seconds();
}

// queue + combiner under contention: 4 threads renewing a Write handle on
// one location, Direct control; ns per grant.
double queue_contended_ns() {
  constexpr int kWriters = 4, kRounds = 2000;
  RuntimeOptions opts;
  opts.control = RuntimeOptions::ControlMode::Direct;
  opts.record_flows = false;
  return median_of(kReps, [&] {
    return run_writers(opts, kWriters, kRounds) * 1e9 / (kWriters * kRounds);
  });
}

// events: post() on one thread to pop_all() on a consumer parked under
// the default (block) strategy; the poster spins on the consumer's
// acknowledgement, so each event pays one park→wake hop. ns per event.
double event_hop_ns() {
  constexpr std::uint32_t kEvents = 20000;
  EventQueue q(RuntimeOptions{}.wait);
  std::atomic<std::uint32_t> acked{0};
  std::thread consumer([&q, &acked] {
    std::vector<Event> batch;
    std::uint32_t seen = 0;
    while (q.pop_all(batch)) {
      seen += static_cast<std::uint32_t>(batch.size());
      batch.clear();
      acked.store(seen, std::memory_order_release);
    }
  });
  WallTimer timer;
  for (std::uint32_t i = 1; i <= kEvents; ++i) {
    q.post({});
    sync::spin_until(
        [&] { return acked.load(std::memory_order_acquire) >= i; });
  }
  const double s = timer.seconds();
  q.stop();
  consumer.join();
  return s * 1e9 / kEvents;
}

constexpr int kCycleRounds = 2000;

// handle: two tasks alternating on one location through raw Runtime
// Handles, default options; ns per grant.
double handle_cycle_ns(bool record_flows) {
  RuntimeOptions opts;
  opts.record_flows = record_flows;
  return run_writers(opts, 2, kCycleRounds) * 1e9 / (2 * kCycleRounds);
}

// section: the same alternation declared as a Program (Step / Section) on
// RuntimeBackend; ns per grant over RunReport::seconds (the Runtime::run
// part, as in handle_cycle_ns).
double section_cycle_ns(RuntimeBackend& backend) {
  Program p;
  const Location<long> loc = p.location<long>(1, "x");
  for (int t = 0; t < 2; ++t)
    p.task("t" + std::to_string(t))
        .writes(loc)
        .iterations(kCycleRounds)
        .body([loc](Step& s) {
          s.write(loc, [](std::span<long> x) { ++x[0]; });
        });
  const RunReport rep = p.run(backend);
  ORWL_CHECK_MSG(backend.fetch(loc)[0] == 2L * kCycleRounds,
                 "section rung counted " << backend.fetch(loc)[0]);
  return rep.seconds * 1e9 / (2 * kCycleRounds);
}

// runtime: Runtime::run of 4 tasks with one Write handle each (own
// location) and empty bodies; seconds.
double spawn_join_s() {
  Runtime rt;
  for (int i = 0; i < 4; ++i) {
    const LocationId loc = rt.add_location(64);
    const TaskId t = rt.add_task("t" + std::to_string(i), [](TaskContext&) {});
    rt.add_handle(t, loc, AccessMode::Write);
  }
  WallTimer timer;
  rt.run();
  return timer.seconds();
}

}  // namespace

std::vector<Metric> run_rungs() {
  std::vector<Metric> out;
  const auto add = [&out](std::string name, double v, std::string unit) {
    out.push_back({std::move(name), v, std::move(unit)});
  };
  add("sync.park_wake_ns", median_of(kReps, [] {
        return word_handoff_ns(sync::WaitStrategy::block());
      }),
      "ns");
  add("sync.spin_wake_ns", median_of(kReps, [] {
        return word_handoff_ns(sync::WaitStrategy::spin_then_park(256));
      }),
      "ns");
  add("queue.renew_ns", median_of(kReps, queue_renew_ns), "ns");
  add("queue.read_run_ns", median_of(kReps, queue_read_run_ns), "ns");
  add("queue.contended_ns", queue_contended_ns(), "ns");
  add("events.hop_ns", median_of(kReps, event_hop_ns), "ns");

  // Flows on and off alternate within each repetition so drift between
  // them does not read as Instrument cost; the rung is the median of the
  // paired differences.
  std::vector<double> on, diff;
  for (int r = 0; r < kReps; ++r) {
    on.push_back(handle_cycle_ns(true));
    diff.push_back(on.back() - handle_cycle_ns(false));
  }
  add("handle.cycle_ns", median(on), "ns");
  RuntimeBackend backend;
  add("section.cycle_ns",
      median_of(kReps, [&backend] { return section_cycle_ns(backend); }),
      "ns");
  add("instrument.flow_ns", median(std::move(diff)), "ns");
  add("runtime.spawn_join_s", median_of(4 * kReps, spawn_join_s), "s");
  return out;
}

}  // namespace perfbench
