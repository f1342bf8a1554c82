// Integration-level tests for the ORWL Runtime: handles, grant delivery,
// iterative renewal, instrumentation, comm-matrix extraction.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "orwl/runtime.h"
#include "support/assert.h"

namespace orwl {
namespace {

TEST(Runtime, SingleTaskWritesLocation) {
  Runtime rt;
  const LocationId loc = rt.add_location(sizeof(int));
  const TaskId t = rt.add_task("writer", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    auto bytes = h.acquire();
    as_span<int>(bytes)[0] = 42;
    h.release();
  });
  const HandleId h = rt.add_handle(t, loc, AccessMode::Write);
  ASSERT_EQ(h, 0);
  rt.run();
  EXPECT_EQ(as_span<int>(rt.location_data(loc))[0], 42);
}

TEST(Runtime, RemovedControlModesAreRejected) {
  // PerTask and SharedPool routed grants through control threads, which
  // the runtime no longer has: asking for either fails at construction and
  // says so.
  for (const auto mode : {RuntimeOptions::ControlMode::PerTask,
                          RuntimeOptions::ControlMode::SharedPool}) {
    RuntimeOptions opts;
    opts.control = mode;
    try {
      Runtime rt(opts);
      ADD_FAILURE() << "control mode " << static_cast<int>(mode)
                    << " was accepted";
    } catch (const ContractError& e) {
      EXPECT_NE(std::string(e.what()).find("removed"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Runtime, ProducerConsumerOrder) {
  Runtime rt;
  const LocationId loc = rt.add_location(sizeof(int));
  std::atomic<int> observed{-1};
  const TaskId producer = rt.add_task("producer", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    auto bytes = h.acquire();
    as_span<int>(bytes)[0] = 7;
    h.release();
  });
  const TaskId consumer = rt.add_task("consumer", [&](TaskContext& ctx) {
    Handle& h = ctx.handle(1);
    auto bytes = h.acquire();
    observed = as_span<const int>(std::span<const std::byte>(bytes))[0];
    h.release();
  });
  // Registration order: write first => the consumer sees the product.
  rt.add_handle(producer, loc, AccessMode::Write);
  rt.add_handle(consumer, loc, AccessMode::Read);
  rt.run();
  EXPECT_EQ(observed.load(), 7);
}

TEST(Runtime, IterativeCounterRoundRobin) {
  // Two tasks increment a shared counter in strict alternation; the FIFO
  // ordering makes the interleaving deterministic.
  constexpr int kIters = 50;
  Runtime rt;
  const LocationId loc = rt.add_location(sizeof(long));
  std::vector<long> seen_a, seen_b;
  const TaskId a = rt.add_task("a", [&](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    for (int i = 0; i < kIters; ++i) {
      auto bytes = h.acquire();
      long& v = as_span<long>(bytes)[0];
      seen_a.push_back(v);
      v += 1;
      h.release_and_renew();
    }
  });
  const TaskId b = rt.add_task("b", [&](TaskContext& ctx) {
    Handle& h = ctx.handle(1);
    for (int i = 0; i < kIters; ++i) {
      auto bytes = h.acquire();
      long& v = as_span<long>(bytes)[0];
      seen_b.push_back(v);
      v += 1;
      h.release_and_renew();
    }
  });
  rt.add_handle(a, loc, AccessMode::Write);
  rt.add_handle(b, loc, AccessMode::Write);
  rt.run();
  ASSERT_EQ(seen_a.size(), static_cast<std::size_t>(kIters));
  ASSERT_EQ(seen_b.size(), static_cast<std::size_t>(kIters));
  // a sees 0,2,4,...; b sees 1,3,5,... — perfect alternation.
  for (int i = 0; i < kIters; ++i) {
    EXPECT_EQ(seen_a[static_cast<std::size_t>(i)], 2 * i);
    EXPECT_EQ(seen_b[static_cast<std::size_t>(i)], 2 * i + 1);
  }
  EXPECT_EQ(as_span<long>(rt.location_data(loc))[0], 2 * kIters);
}

TEST(Runtime, SharedReadersSeeSameSnapshot) {
  Runtime rt;
  const LocationId loc = rt.add_location(sizeof(int));
  const TaskId w = rt.add_task("w", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    auto bytes = h.acquire();
    as_span<int>(bytes)[0] = 99;
    h.release();
  });
  std::atomic<int> sum{0};
  std::vector<TaskId> readers;
  for (int i = 0; i < 4; ++i) {
    readers.push_back(rt.add_task(
        "r" + std::to_string(i), [&sum, i](TaskContext& ctx) {
          Handle& h = ctx.handle(1 + i);
          auto bytes = h.acquire();
          sum += as_span<const int>(std::span<const std::byte>(bytes))[0];
          h.release();
        }));
  }
  rt.add_handle(w, loc, AccessMode::Write);
  for (int i = 0; i < 4; ++i)
    rt.add_handle(readers[static_cast<std::size_t>(i)], loc,
                  AccessMode::Read);
  rt.run();
  EXPECT_EQ(sum.load(), 4 * 99);
  EXPECT_EQ(rt.stats().read_grants(), 4u);
  EXPECT_EQ(rt.stats().write_grants(), 1u);
}

TEST(Runtime, TaskExceptionPropagates) {
  Runtime rt;
  rt.add_task("boom", [](TaskContext&) {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(rt.run(), std::runtime_error);
}

TEST(Runtime, RunTwiceThrows) {
  Runtime rt;
  rt.add_task("noop", [](TaskContext&) {});
  rt.run();
  EXPECT_THROW(rt.run(), ContractError);
}

TEST(Runtime, RunWithoutTasksThrows) {
  Runtime rt;
  EXPECT_THROW(rt.run(), ContractError);
}

TEST(Runtime, AddAfterRunThrows) {
  Runtime rt;
  rt.add_task("noop", [](TaskContext&) {});
  rt.run();
  EXPECT_THROW(rt.add_location(8), ContractError);
  EXPECT_THROW(rt.add_task("late", [](TaskContext&) {}), ContractError);
}

TEST(Runtime, InvalidIdsRejected) {
  Runtime rt;
  EXPECT_THROW(rt.add_handle(0, 0, AccessMode::Read), ContractError);
  const TaskId t = rt.add_task("t", [](TaskContext&) {});
  EXPECT_THROW(rt.add_handle(t, 5, AccessMode::Read), ContractError);
  EXPECT_THROW(rt.handle(0), ContractError);
  EXPECT_THROW(rt.location_data(0), ContractError);
  EXPECT_THROW(rt.set_compute_binding(9, topo::Bitmap::single(0)),
               ContractError);
}

TEST(Runtime, HandleMisuseThrows) {
  Runtime rt;
  const LocationId loc = rt.add_location(8);
  const TaskId t = rt.add_task("t", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    EXPECT_THROW(h.release(), ContractError);  // release before acquire
    h.acquire();
    EXPECT_THROW(h.acquire(), ContractError);  // double acquire
    h.release();
    EXPECT_THROW(h.release(), ContractError);  // double release
  });
  rt.add_handle(t, loc, AccessMode::Write);
  rt.run();
}

TEST(Runtime, UnprimedHandleNeedsManualRequest) {
  Runtime rt;
  const LocationId loc = rt.add_location(sizeof(int));
  const TaskId t = rt.add_task("t", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    EXPECT_THROW(h.acquire(), ContractError);  // no request yet
    h.request();
    auto bytes = h.acquire();
    as_span<int>(bytes)[0] = 5;
    h.release();
  });
  rt.add_handle(t, loc, AccessMode::Write, /*prime=*/false);
  rt.run();
  EXPECT_EQ(as_span<int>(rt.location_data(loc))[0], 5);
}

TEST(Runtime, StaticCommMatrixFromRegistrations) {
  Runtime rt;
  const LocationId big = rt.add_location(1000);
  const LocationId small = rt.add_location(10);
  const TaskId t0 = rt.add_task("t0", [](TaskContext&) {});
  const TaskId t1 = rt.add_task("t1", [](TaskContext&) {});
  const TaskId t2 = rt.add_task("t2", [](TaskContext&) {});
  rt.add_handle(t0, big, AccessMode::Write, false);
  rt.add_handle(t1, big, AccessMode::Read, false);
  rt.add_handle(t1, small, AccessMode::Write, false);
  rt.add_handle(t2, small, AccessMode::Read, false);
  const comm::CommMatrix m = rt.static_comm_matrix();
  EXPECT_EQ(m.order(), 3);
  EXPECT_EQ(m.at(t0, t1), 1000.0);
  EXPECT_EQ(m.at(t1, t2), 10.0);
  EXPECT_EQ(m.at(t0, t2), 0.0);
}

TEST(Runtime, StaticCommMatrixWriterPairs) {
  Runtime rt;
  const LocationId loc = rt.add_location(64);
  const TaskId t0 = rt.add_task("t0", [](TaskContext&) {});
  const TaskId t1 = rt.add_task("t1", [](TaskContext&) {});
  rt.add_handle(t0, loc, AccessMode::Write, false);
  rt.add_handle(t1, loc, AccessMode::Write, false);
  const comm::CommMatrix m = rt.static_comm_matrix();
  EXPECT_EQ(m.at(t0, t1), 64.0) << "co-writers exchange the buffer";
}

TEST(Runtime, MeasuredFlowsTrackProducerConsumer) {
  Runtime rt;
  const LocationId loc = rt.add_location(256);
  const TaskId w = rt.add_task("w", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    h.acquire();
    h.release();
  });
  const TaskId r = rt.add_task("r", [](TaskContext& ctx) {
    Handle& h = ctx.handle(1);
    h.acquire();
    h.release();
  });
  rt.add_handle(w, loc, AccessMode::Write);
  rt.add_handle(r, loc, AccessMode::Read);
  rt.run();
  const comm::CommMatrix flows = rt.measured_comm_matrix();
  EXPECT_EQ(flows.at(w, r), 256.0);
}

TEST(Runtime, BindingsAccepted) {
  // Binding to the first online CPU must not break execution.
  Runtime rt;
  const LocationId loc = rt.add_location(sizeof(int));
  const TaskId t = rt.add_task("bound", [](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    auto bytes = h.acquire();
    as_span<int>(bytes)[0] = 1;
    h.release();
  });
  rt.add_handle(t, loc, AccessMode::Write);
  rt.set_compute_binding(t, topo::Bitmap::single(0));
  rt.run();
  EXPECT_EQ(as_span<int>(rt.location_data(loc))[0], 1);
}

bool all_bytes(std::span<const std::byte> bytes, std::byte value) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [value](std::byte b) { return b == value; });
}

TEST(Runtime, LocationsAreZeroWhicheverThreadTouchesThemFirst) {
  // add_location defers the heap zero fill: the compute thread of a
  // location's first Write grant zeroes it before the body runs, and the
  // run() thread or location_data() zeroes every other one. Whoever reads
  // a fresh location sees zeros, and no fill is left pending.
  constexpr std::size_t kBytes = 3 * 4096 + 40;
  constexpr std::byte kWritten{0x5a};
  constexpr std::byte kInit{7};
  for (const mem::MemoryPolicy memory :
       {mem::MemoryPolicy::Heap, mem::MemoryPolicy::NumaLocal,
        mem::MemoryPolicy::NumaInterleave}) {
    SCOPED_TRACE(mem::to_string(memory));
    RuntimeOptions opts;
    opts.memory = memory;
    Runtime rt(opts);
    const LocationId written = rt.add_location(kBytes, "written");
    const LocationId read = rt.add_location(kBytes, "read");
    const LocationId touched = rt.add_location(kBytes, "touched");
    const LocationId undeclared = rt.add_location(kBytes, "undeclared");

    // Pre-run first touch, as a Program::init hook does.
    const std::span<std::byte> pre = rt.location_data(touched);
    EXPECT_TRUE(all_bytes(pre, std::byte{0}));
    pre[0] = kInit;

    bool writer_pending = true;
    bool writer_saw_zero = false;
    bool reader_saw_zero = false;
    bool reader_saw_write = false;
    bool reader_saw_init = false;
    const TaskId w = rt.add_task("writer", [&](TaskContext& ctx) {
      writer_pending = rt.location_storage(written).zero_pending();
      Handle& h = ctx.handle(0);
      const std::span<std::byte> bytes = h.acquire();
      writer_saw_zero = all_bytes(bytes, std::byte{0});
      std::fill(bytes.begin(), bytes.end(), kWritten);
      h.release();
    });
    const TaskId r = rt.add_task("reader", [&](TaskContext& ctx) {
      Handle& first = ctx.handle(1);
      reader_saw_zero = all_bytes(first.acquire_const(), std::byte{0});
      first.release();
      Handle& after_writer = ctx.handle(2);
      reader_saw_write = all_bytes(after_writer.acquire_const(), kWritten);
      after_writer.release();
      Handle& init = ctx.handle(3);
      const std::span<const std::byte> t = init.acquire_const();
      reader_saw_init =
          t[0] == kInit && all_bytes(t.subspan(1), std::byte{0});
      init.release();
    });
    rt.add_handle(w, written, AccessMode::Write);  // first grant: a Write
    rt.add_handle(r, read, AccessMode::Read);      // first grant: a Read
    rt.add_handle(r, written, AccessMode::Read);
    rt.add_handle(r, touched, AccessMode::Read);
    rt.run();

    EXPECT_FALSE(writer_pending) << "the writer's body ran before its fill";
    EXPECT_TRUE(writer_saw_zero);
    EXPECT_TRUE(reader_saw_zero);
    EXPECT_TRUE(reader_saw_write);
    EXPECT_TRUE(reader_saw_init);
    for (LocationId l = 0; l < rt.num_locations(); ++l)
      EXPECT_FALSE(rt.location_storage(l).zero_pending()) << "location " << l;
    EXPECT_TRUE(all_bytes(rt.location_data(written), kWritten));
    EXPECT_TRUE(all_bytes(rt.location_data(read), std::byte{0}));
    EXPECT_TRUE(all_bytes(rt.location_data(undeclared), std::byte{0}));
  }
}

int live_threads() {
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "Threads:") {
      int n = -1;
      in >> n;
      return n;
    }
    in.ignore(1 << 12, '\n');
  }
  return -1;
}

// Threads alive while every body of a `tasks`-task run is running, beyond
// those alive before run().
int threads_added_by_run(RuntimeOptions opts, int tasks) {
  Runtime rt(opts);
  std::atomic<int> arrived{0};
  std::atomic<int> seen{-1};
  for (int t = 0; t < tasks; ++t) {
    rt.add_task("t" + std::to_string(t), [&arrived, &seen, t,
                                          tasks](TaskContext&) {
      arrived.fetch_add(1);
      while (arrived.load() < tasks) std::this_thread::yield();
      if (t == 0) seen.store(live_threads());
      while (seen.load() < 0) std::this_thread::yield();
    });
  }
  const int before = live_threads();
  rt.run();
  return seen.load() - before;
}

TEST(Runtime, DefaultRunStartsOneThreadPerTask) {
  if (live_threads() < 0) GTEST_SKIP() << "no Threads: in /proc/self/status";
  EXPECT_EQ(RuntimeOptions{}.control, RuntimeOptions::ControlMode::Direct);
  EXPECT_EQ(threads_added_by_run({}, 4), 4);
}

TEST(Runtime, ManyTasksManyLocationsRing) {
  // Token ring: task i reads location i and writes location (i+1) % n.
  constexpr int kTasks = 8;
  constexpr int kRounds = 10;
  Runtime rt;
  std::vector<LocationId> locs;
  for (int i = 0; i < kTasks; ++i)
    locs.push_back(rt.add_location(sizeof(long)));
  for (int i = 0; i < kTasks; ++i) {
    rt.add_task("ring" + std::to_string(i), [i](TaskContext& ctx) {
      Handle& rd = ctx.handle(2 * i);
      Handle& wr = ctx.handle(2 * i + 1);
      for (int round = 0; round < kRounds; ++round) {
        const bool last = round + 1 == kRounds;
        long v;
        {
          auto bytes = rd.acquire();
          v = as_span<const long>(std::span<const std::byte>(bytes))[0];
          if (last)
            rd.release();
          else
            rd.release_and_renew();
        }
        auto bytes = wr.acquire();
        as_span<long>(bytes)[0] = v + 1;
        if (last)
          wr.release();
        else
          wr.release_and_renew();
      }
    });
  }
  // Canonical order: task i's read on loc i, then write on loc i+1. The
  // writes are what the *next* round's reads consume.
  for (int i = 0; i < kTasks; ++i) {
    rt.add_handle(i, locs[static_cast<std::size_t>(i)], AccessMode::Read);
    rt.add_handle(i, locs[static_cast<std::size_t>((i + 1) % kTasks)],
                  AccessMode::Write);
  }
  rt.run();
  // Each location was written kRounds times with (read value + 1); the ring
  // converges to a consistent wavefront — just verify no deadlock happened
  // and grant counts match: kTasks * kRounds reads + same writes.
  EXPECT_EQ(rt.stats().read_grants(),
            static_cast<std::uint64_t>(kTasks * kRounds));
  EXPECT_EQ(rt.stats().write_grants(),
            static_cast<std::uint64_t>(kTasks * kRounds));
}

TEST(Runtime, TraceRecordsEveryGrantAndNoEventQueueHop) {
  // Two writers alternate on one location with tracing on: strict
  // alternation, one Grant event per grant the runtime counts, and no
  // EventPop — every grant is delivered in the announcing thread.
  constexpr int kIters = 200;
  Runtime rt;
  const LocationId loc = rt.add_location(sizeof(long));
  std::vector<long> seen_a, seen_b;
  const auto body = [](std::vector<long>& seen, HandleId handle_id) {
    return [&seen, handle_id](TaskContext& ctx) {
      Handle& h = ctx.handle(handle_id);
      for (int i = 0; i < kIters; ++i) {
        auto bytes = h.acquire();
        long& v = as_span<long>(bytes)[0];
        seen.push_back(v);
        v += 1;
        h.release_and_renew();
      }
    };
  };
  const TaskId a = rt.add_task("a", body(seen_a, 0));
  const TaskId b = rt.add_task("b", body(seen_b, 1));
  rt.add_handle(a, loc, AccessMode::Write);
  rt.add_handle(b, loc, AccessMode::Write);

  const bool was_tracing = obs::enable_tracing(true);
  obs::reset();
  rt.run();
  const obs::TraceData trace = obs::collect();
  obs::reset();
  obs::enable_tracing(was_tracing);

  ASSERT_EQ(seen_a.size(), static_cast<std::size_t>(kIters));
  ASSERT_EQ(seen_b.size(), static_cast<std::size_t>(kIters));
  for (int k = 0; k < kIters; ++k) {
    EXPECT_EQ(seen_a[static_cast<std::size_t>(k)], 2 * k);
    EXPECT_EQ(seen_b[static_cast<std::size_t>(k)], 2 * k + 1);
  }
  std::uint64_t grant_events = 0;
  std::uint64_t pops = 0;
  for (const obs::TraceThread& t : trace.threads) {
    for (const obs::TraceEvent& ev : t.events) {
      if (ev.kind == obs::EventKind::Grant) ++grant_events;
      if (ev.kind == obs::EventKind::EventPop) ++pops;
    }
  }
  EXPECT_EQ(trace.dropped, 0u);
  const std::uint64_t grants =
      rt.stats().read_grants() + rt.stats().write_grants();
  EXPECT_GT(grants, 0u);
  EXPECT_EQ(grant_events, grants);
  EXPECT_EQ(pops, 0u);
}

// The ring reserve_owners keeps for `owners` owners, `readers` of them
// Read owners: the smallest power of two >= 2 * owners + 2, at least the
// first ring's FifoQueue::kMinCapacity, and at least
// FifoQueue::kDefaultCapacity once two owners read.
std::size_t ring_for(int owners, int readers) {
  std::size_t cap = FifoQueue::kMinCapacity;
  while (cap < 2 * static_cast<std::size_t>(owners) + 2) cap <<= 1;
  return readers >= 2 ? std::max(cap, FifoQueue::kDefaultCapacity) : cap;
}

// One writer and `readers` readers of one location run `rounds` rounds,
// each one write and a read of it per reader; returns the ring capacity.
std::size_t run_laps(int readers, int rounds, sync::WaitStrategy wait) {
  RuntimeOptions opts;
  opts.wait = wait;
  Runtime rt(opts);
  const LocationId loc = rt.add_location(sizeof(long));
  const auto step = [rounds](Handle& h, int round) {
    if (round + 1 == rounds)
      h.release();
    else
      h.release_and_renew();
  };
  const TaskId w = rt.add_task("w", [&step, rounds](TaskContext& ctx) {
    Handle& h = ctx.handle(0);
    for (int r = 0; r < rounds; ++r) {
      as_span<long>(h.acquire())[0] = r + 1;
      step(h, r);
    }
  });
  std::atomic<int> mismatches{0};
  for (int i = 1; i <= readers; ++i) {
    const TaskId t = rt.add_task(
        "r" + std::to_string(i),
        [&step, &mismatches, i, rounds](TaskContext& ctx) {
          Handle& h = ctx.handle(i);
          for (int r = 0; r < rounds; ++r) {
            if (as_span<const long>(h.acquire_const())[0] != r + 1)
              ++mismatches;
            step(h, r);
          }
        });
    EXPECT_EQ(t, i);
  }
  rt.add_handle(w, loc, AccessMode::Write);
  for (int i = 1; i <= readers; ++i) rt.add_handle(i, loc, AccessMode::Read);
  const std::size_t capacity = rt.location_queue(loc).capacity();
  EXPECT_EQ(capacity, ring_for(readers + 1, readers));
  rt.run();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(rt.stats().write_grants(), static_cast<std::uint64_t>(rounds));
  EXPECT_EQ(rt.stats().read_grants(),
            static_cast<std::uint64_t>(readers) *
                static_cast<std::uint64_t>(rounds));
  return capacity;
}

TEST(Runtime, LocationRingsFitTheirOwners) {
  // k handles on a location: with one reader among them the ring is what
  // their in-flight bound needs, from the 8-slot first ring on; with
  // k >= 2 readers it keeps the kDefaultCapacity margin, and grows past
  // it at 128 owners.
  for (const int k : {1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128}) {
    Runtime rt;
    const LocationId one_reader = rt.add_location(sizeof(long));
    const LocationId all_read = rt.add_location(sizeof(long));
    for (int i = 0; i < k; ++i) {
      const TaskId t = rt.add_task("t" + std::to_string(i), [](TaskContext&) {});
      rt.add_handle(t, one_reader, i == 0 ? AccessMode::Read : AccessMode::Write);
      rt.add_handle(t, all_read, AccessMode::Read);
    }
    EXPECT_EQ(rt.location_queue(one_reader).capacity(), ring_for(k, 1)) << k;
    EXPECT_EQ(rt.location_queue(all_read).capacity(), ring_for(k, k)) << k;
  }
  EXPECT_EQ(ring_for(1, 1), 8u);
  EXPECT_EQ(ring_for(4, 1), 16u);
  EXPECT_EQ(ring_for(128, 1), 512u);

  // Each ring runs at least 10 laps under every wait strategy: the 8-slot
  // ring of one writer and one reader, and the 256-slot ring of one writer
  // and 8 readers, with exact grant counts and values.
  for (const sync::WaitStrategy wait :
       {sync::WaitStrategy::block(), sync::WaitStrategy::spin_then_park(),
        sync::WaitStrategy::spin()}) {
    SCOPED_TRACE(sync::to_string(wait));
    EXPECT_EQ(run_laps(1, 40, wait), 8u);
    static_assert((1 + 1) * 40 >= 10 * 8);
    EXPECT_EQ(run_laps(8, 290, wait), FifoQueue::kDefaultCapacity);
    static_assert((8 + 1) * 290 >= 10 * FifoQueue::kDefaultCapacity);
  }
}

TEST(Runtime, ReaderRenewsPastAHeldReadOfTheSameLocation) {
  // Two readers of `shared`. The holder acquires it and, still holding
  // it, waits for the renewer's write to `signal`; the renewer reads
  // `shared` kRenewals times before writing. Each renewal is granted
  // beside the held read and leaves a released slot behind it, so the
  // ring must hold them all: the 8 slots two owners need would wedge the
  // renewer at its 8th renewal, waiting on a holder that waits on it.
  constexpr int kRenewals = 200;
  for (const sync::WaitStrategy wait :
       {sync::WaitStrategy::block(), sync::WaitStrategy::spin_then_park(),
        sync::WaitStrategy::spin()}) {
    SCOPED_TRACE(sync::to_string(wait));
    RuntimeOptions opts;
    opts.wait = wait;
    Runtime rt(opts);
    const LocationId shared = rt.add_location(sizeof(long));
    const LocationId signal = rt.add_location(sizeof(long));
    const TaskId renewer = rt.add_task("renewer", [](TaskContext& ctx) {
      Handle& s = ctx.handle(0);
      for (int r = 0; r < kRenewals; ++r) {
        (void)s.acquire_const();
        s.release_and_renew();
      }
      (void)s.acquire_const();
      s.release();
      Handle& w = ctx.handle(1);
      as_span<long>(w.acquire())[0] = kRenewals;
      w.release();
    });
    std::atomic<long> seen{0};
    const TaskId holder = rt.add_task("holder", [&seen](TaskContext& ctx) {
      Handle& s = ctx.handle(2);
      (void)s.acquire_const();
      Handle& r = ctx.handle(3);
      seen = as_span<const long>(r.acquire_const())[0];
      r.release();
      s.release();
    });
    rt.add_handle(renewer, shared, AccessMode::Read);
    rt.add_handle(renewer, signal, AccessMode::Write);
    rt.add_handle(holder, shared, AccessMode::Read);
    rt.add_handle(holder, signal, AccessMode::Read);
    ASSERT_GE(rt.location_queue(shared).capacity(),
              static_cast<std::size_t>(kRenewals) + 2);
    rt.run();
    EXPECT_EQ(seen.load(), kRenewals);
    EXPECT_EQ(rt.stats().read_grants(),
              static_cast<std::uint64_t>(kRenewals) + 3);
    EXPECT_EQ(rt.stats().write_grants(), 1u);
  }
}

TEST(Runtime, PerHandleHistogramsKeepTheirNames) {
  // Handle i acquires i + 1 times; its two histograms are named by its id
  // and listed in name order, as every reader of a snapshot expects.
  constexpr int kHandles = 12;
  const bool prev = obs::enable_detailed_metrics(true);
  Runtime rt;
  for (int i = 0; i < kHandles; ++i) {
    const LocationId loc = rt.add_location(sizeof(long));
    const TaskId t = rt.add_task("t" + std::to_string(i), [i](TaskContext& ctx) {
      Handle& h = ctx.handle(i);
      for (int r = 0; r <= i; ++r) {
        h.acquire();
        if (r == i)
          h.release();
        else
          h.release_and_renew();
      }
    });
    ASSERT_EQ(rt.add_handle(t, loc, AccessMode::Write), i);
  }
  rt.run();
  obs::enable_detailed_metrics(prev);

  std::vector<std::string> want;
  for (const char* family : {"orwl.wait_rounds/h", "orwl.acquire_ns/h"})
    for (int i = 0; i < kHandles; ++i)
      want.push_back(family + std::to_string(i));
  std::sort(want.begin(), want.end());
  ASSERT_EQ(want[2], "orwl.acquire_ns/h10");  // name order, not id order

  const obs::RegistrySnapshot snap = rt.metrics().snapshot();
  std::vector<std::string> names;
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    names.push_back(h.name);
    const std::size_t slash = h.name.find("/h");
    ASSERT_NE(slash, std::string::npos) << h.name;
    const int id = std::stoi(h.name.substr(slash + 2));
    EXPECT_EQ(h.count, static_cast<std::uint64_t>(id + 1)) << h.name;
  }
  EXPECT_EQ(names, want);
}

TEST(Runtime, SetUpGrowsLinearly) {
  // Building a runtime lays out state linear in the program. A token ring
  // of n tasks (each reads its location and writes the next) gets an 8-slot
  // ring per location (two owners, one reader), an Instrument layout of at
  // most 3 count cells per location (a 1 x 2 table and the 1 x 1 table it
  // outgrew), and two histograms per handle, for n = 32 and n = 256 alike.
  // Dense task x task flow matrices, one per shard, would be 8 n^2 cells.
  for (const int tasks : {32, 256}) {
    SCOPED_TRACE(tasks);
    Runtime rt;
    for (int i = 0; i < tasks; ++i) rt.add_location(sizeof(long));
    for (int i = 0; i < tasks; ++i) {
      rt.add_task("t" + std::to_string(i), [](TaskContext&) {});
      rt.add_handle(i, i, AccessMode::Read);
      rt.add_handle(i, (i + 1) % tasks, AccessMode::Write);
    }
    for (LocationId l = 0; l < tasks; ++l)
      EXPECT_EQ(rt.location_queue(l).capacity(), 8u) << l;
    EXPECT_LE(rt.stats().cells(), 3u * static_cast<std::size_t>(tasks));
    EXPECT_EQ(rt.metrics().snapshot().histograms.size(),
              4u * static_cast<std::size_t>(tasks));
  }
}

}  // namespace
}  // namespace orwl
