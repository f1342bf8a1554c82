// Integration-level tests for the ORWL Runtime: handles, control threads,
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

#include "obs/trace.h"
#include "orwl/runtime.h"
#include "support/assert.h"

namespace orwl {
namespace {

RuntimeOptions direct_mode() {
  RuntimeOptions o;
  o.control = RuntimeOptions::ControlMode::Direct;
  return o;
}

TEST(Runtime, SingleTaskWritesLocation) {
  for (auto mode : {RuntimeOptions::ControlMode::Direct,
                    RuntimeOptions::ControlMode::PerTask,
                    RuntimeOptions::ControlMode::SharedPool}) {
    RuntimeOptions opts;
    opts.control = mode;
    Runtime rt(opts);
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
}

TEST(Runtime, ProducerConsumerOrder) {
  Runtime rt(direct_mode());
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
  Runtime rt(direct_mode());
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
  Runtime rt;  // PerTask control threads
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
  Runtime rt(direct_mode());
  rt.add_task("boom", [](TaskContext&) {
    throw std::runtime_error("task failed");
  });
  EXPECT_THROW(rt.run(), std::runtime_error);
}

TEST(Runtime, RunTwiceThrows) {
  Runtime rt(direct_mode());
  rt.add_task("noop", [](TaskContext&) {});
  rt.run();
  EXPECT_THROW(rt.run(), ContractError);
}

TEST(Runtime, RunWithoutTasksThrows) {
  Runtime rt;
  EXPECT_THROW(rt.run(), ContractError);
}

TEST(Runtime, AddAfterRunThrows) {
  Runtime rt(direct_mode());
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
  Runtime rt(direct_mode());
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
  Runtime rt(direct_mode());
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
  Runtime rt(direct_mode());
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

TEST(Runtime, SharedPoolValidation) {
  RuntimeOptions opts;
  opts.control = RuntimeOptions::ControlMode::SharedPool;
  opts.shared_control_threads = 0;
  EXPECT_THROW(Runtime bad(opts), ContractError);

  opts.shared_control_threads = 2;
  Runtime rt(opts);
  EXPECT_NO_THROW(
      rt.set_shared_control_binding(0, topo::Bitmap::single(0)));
  EXPECT_THROW(rt.set_shared_control_binding(2, topo::Bitmap::single(0)),
               ContractError);

  Runtime per_task;  // default Direct: shared bindings rejected
  EXPECT_THROW(
      per_task.set_shared_control_binding(0, topo::Bitmap::single(0)),
      ContractError);
}

TEST(Runtime, SharedPoolDeliversAllGrants) {
  RuntimeOptions opts;
  opts.control = RuntimeOptions::ControlMode::SharedPool;
  opts.shared_control_threads = 2;
  Runtime rt(opts);
  rt.set_shared_control_binding(0, topo::Bitmap::single(0));
  const LocationId loc = rt.add_location(sizeof(long));
  for (int i = 0; i < 5; ++i) {
    rt.add_task("t" + std::to_string(i), [i](TaskContext& ctx) {
      Handle& h = ctx.handle(i);
      for (int round = 0; round < 20; ++round) {
        auto bytes = h.acquire();
        as_span<long>(bytes)[0] += 1;
        if (round == 19)
          h.release();
        else
          h.release_and_renew();
      }
    });
  }
  for (int i = 0; i < 5; ++i) rt.add_handle(i, loc, AccessMode::Write);
  rt.run();
  EXPECT_EQ(as_span<long>(rt.location_data(loc))[0], 100);
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
  rt.set_control_binding(t, topo::Bitmap::single(0));
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
  for (const auto control : {RuntimeOptions::ControlMode::Direct,
                             RuntimeOptions::ControlMode::PerTask}) {
    for (const mem::MemoryPolicy memory :
         {mem::MemoryPolicy::Heap, mem::MemoryPolicy::NumaLocal,
          mem::MemoryPolicy::NumaInterleave}) {
      SCOPED_TRACE(std::string(mem::to_string(memory)) +
                   (control == RuntimeOptions::ControlMode::Direct
                        ? " direct"
                        : " per_task"));
      RuntimeOptions opts;
      opts.control = control;
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
  RuntimeOptions per_task;
  per_task.control = RuntimeOptions::ControlMode::PerTask;
  EXPECT_EQ(threads_added_by_run(per_task, 4), 8);  // one control thread each
}

TEST(Runtime, ManyTasksManyLocationsRing) {
  // Token ring: task i reads location i and writes location (i+1) % n.
  constexpr int kTasks = 8;
  constexpr int kRounds = 10;
  Runtime rt;  // PerTask control threads exercise the event path
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

// Two writers alternating on one location through control threads, run
// with tracing on. Returns the interleaving each task observed, so
// deliveries routed inline (idle backlog short-cut) and deliveries routed
// through the control thread can be compared for semantic equality, plus
// what the trace says about who delivered the grants.
struct Alternation {
  std::vector<long> seen_a, seen_b;
  std::uint64_t grants = 0;        ///< the runtime's grant count
  std::uint64_t grant_events = 0;  ///< Grant events in the trace
  std::uint64_t pops = 0;          ///< EventPop events (control-thread wakes)
  std::uint64_t popped = 0;        ///< sum of their batch sizes
  std::uint64_t dropped = 0;       ///< trace events lost to ring overwrite
};

Alternation run_alternation(RuntimeOptions opts, int iters) {
  Runtime rt(opts);
  const LocationId loc = rt.add_location(sizeof(long));
  Alternation out;
  auto body = [&](std::vector<long>& seen, HandleId handle_id) {
    return [&seen, handle_id, iters](TaskContext& ctx) {
      Handle& h = ctx.handle(handle_id);
      for (int i = 0; i < iters; ++i) {
        auto bytes = h.acquire();
        long& v = as_span<long>(bytes)[0];
        seen.push_back(v);
        v += 1;
        h.release_and_renew();
      }
    };
  };
  const TaskId a = rt.add_task("a", body(out.seen_a, 0));
  const TaskId b = rt.add_task("b", body(out.seen_b, 1));
  rt.add_handle(a, loc, AccessMode::Write);
  rt.add_handle(b, loc, AccessMode::Write);

  const bool was_tracing = obs::enable_tracing(true);
  obs::reset();
  rt.run();
  const obs::TraceData trace = obs::collect();
  obs::reset();
  obs::enable_tracing(was_tracing);

  out.grants = rt.stats().read_grants() + rt.stats().write_grants();
  out.dropped = trace.dropped;
  for (const obs::TraceThread& t : trace.threads) {
    for (const obs::TraceEvent& ev : t.events) {
      if (ev.kind == obs::EventKind::Grant) ++out.grant_events;
      if (ev.kind == obs::EventKind::EventPop) {
        ++out.pops;
        out.popped += ev.arg;
      }
    }
  }
  return out;
}

TEST(Runtime, InlineIdleDeliveryMatchesQueuedDelivery) {
  // The idle-backlog short-cut (deliver the grant inline instead of
  // hopping through the control thread) must be invisible to the
  // protocol: same strict alternation, same values, with the flag on
  // (default) and off, under both control-thread modes. The trace pins
  // who delivers: a post needs an existing backlog, so with the flag on
  // no backlog ever forms and the control threads pop nothing; with it
  // off they deliver every grant.
  constexpr int kIters = 200;
  for (const auto mode : {RuntimeOptions::ControlMode::PerTask,
                          RuntimeOptions::ControlMode::SharedPool}) {
    SCOPED_TRACE(mode == RuntimeOptions::ControlMode::PerTask ? "PerTask"
                                                              : "SharedPool");
    RuntimeOptions defaults;
    defaults.control = mode;
    ASSERT_TRUE(defaults.inline_idle_delivery);
    RuntimeOptions queued = defaults;
    queued.inline_idle_delivery = false;
    const Alternation q = run_alternation(queued, kIters);
    const Alternation i = run_alternation(defaults, kIters);
    EXPECT_EQ(q.seen_a, i.seen_a);
    EXPECT_EQ(q.seen_b, i.seen_b);
    for (int k = 0; k < kIters; ++k) {
      EXPECT_EQ(i.seen_a[static_cast<std::size_t>(k)], 2 * k);
      EXPECT_EQ(i.seen_b[static_cast<std::size_t>(k)], 2 * k + 1);
    }

    for (const Alternation* run : {&q, &i}) {
      EXPECT_EQ(run->dropped, 0u);
      EXPECT_GT(run->grants, 0u);
      EXPECT_EQ(run->grant_events, run->grants);  // the trace saw the run
    }
    EXPECT_EQ(i.pops, 0u) << "a control thread delivered a grant by default";
    EXPECT_GT(q.pops, 0u);
    EXPECT_EQ(q.popped, q.grants);
  }
}

}  // namespace
}  // namespace orwl
