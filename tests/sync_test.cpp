// Tests for the sync:: support layer (waiter, wait strategies, sharded
// counter) and for the FifoQueue on top of it: a randomized concurrent
// linearizability check replaying the observed ticket order through a
// single-threaded model run, the always-on re-entrancy assert on the
// grant sink contract, and a lost-wakeup regression driven by the
// deterministic model scheduler (tests/model/).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <mutex>
#include <new>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "model/vthread.h"
#include "orwl/queue.h"
#include "sync/combiner.h"
#include "sync/shared_futex.h"
#include "support/assert.h"
#include "support/rng.h"
#include "sync/sharded_counter.h"
#include "sync/wait_strategy.h"
#include "sync/waiter.h"

namespace orwl {
namespace {

// ---------------------------------------------------------------------------
// WaitStrategy parsing / formatting
// ---------------------------------------------------------------------------

TEST(WaitStrategy, ParseRoundTrip) {
  EXPECT_EQ(sync::parse_wait_strategy("block"), sync::WaitStrategy::block());
  EXPECT_EQ(sync::parse_wait_strategy("spin"), sync::WaitStrategy::spin());
  EXPECT_EQ(sync::parse_wait_strategy("spin_then_park"),
            sync::WaitStrategy::spin_then_park());
  EXPECT_EQ(sync::parse_wait_strategy("spin_then_park(512)"),
            sync::WaitStrategy::spin_then_park(512));
  EXPECT_EQ(sync::parse_wait_strategy("spin_then_park:64"),
            sync::WaitStrategy::spin_then_park(64));
  EXPECT_EQ(sync::parse_wait_strategy("BLOCK"), sync::WaitStrategy::block());
  EXPECT_EQ(sync::to_string(sync::WaitStrategy::spin_then_park(128)),
            "spin_then_park(128)");
  EXPECT_THROW(sync::parse_wait_strategy("condvar"), ContractError);
  EXPECT_THROW(sync::parse_wait_strategy("spin_then_park(x)"),
               ContractError);
  // Overflow must surface as the documented ContractError, not
  // std::out_of_range from stoi.
  EXPECT_THROW(sync::parse_wait_strategy("spin_then_park(99999999999999999)"),
               ContractError);
  // "auto" is not a wait strategy in either spelling, and the error names
  // only the accepted forms.
  for (const char* removed : {"auto", "spin_then_park(auto)"}) {
    try {
      (void)sync::parse_wait_strategy(removed);
      ADD_FAILURE() << "'" << removed << "' must not parse";
    } catch (const ContractError& e) {
      const std::string what = e.what();
      const std::size_t use = what.find("; use ");
      ASSERT_NE(use, std::string::npos) << what;
      EXPECT_EQ(what.substr(use), "; use block | spin | spin_then_park[(N)]");
    }
  }
}

// ---------------------------------------------------------------------------
// Waiter: park/wake correctness under every strategy, incl. spurious wakes
// ---------------------------------------------------------------------------

class WaiterTest : public ::testing::TestWithParam<sync::WaitStrategy> {};

TEST_P(WaiterTest, ReturnsImmediatelyWhenAlreadyChanged) {
  std::atomic<std::uint32_t> word{7};
  EXPECT_EQ(sync::wait_while_equal(word, 3u, GetParam()), 7u);
}

TEST_P(WaiterTest, WakesOnGenuineChange) {
  std::atomic<std::uint32_t> word{0};
  std::atomic<bool> done{false};
  std::thread waiter([&] {
    const std::uint32_t v = sync::wait_while_equal(word, 0u, GetParam());
    EXPECT_EQ(v, 42u);
    done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  word.store(42, std::memory_order_release);
  sync::notify_all(word);
  waiter.join();
  EXPECT_TRUE(done.load());
}

TEST_P(WaiterTest, AbsorbsSpuriousWakes) {
  // Notifies without a value change must not make the waiter return: the
  // contract is "returns only on a genuine change".
  std::atomic<std::uint32_t> word{0};
  std::atomic<bool> returned{false};
  std::thread waiter([&] {
    const std::uint32_t v = sync::wait_while_equal(word, 0u, GetParam());
    returned = true;
    EXPECT_EQ(v, 9u);
  });
  for (int i = 0; i < 50; ++i) {
    sync::notify_all(word);  // spurious: value still 0
    std::this_thread::yield();
    EXPECT_FALSE(returned.load());
  }
  word.store(9, std::memory_order_release);
  sync::notify_all(word);
  waiter.join();
  EXPECT_TRUE(returned.load());
}

TEST_P(WaiterTest, ManySequentialHandoffs) {
  // Ping-pong a counter through two threads; every step is a full
  // store+notify / wait cycle. Catches lost-wake bugs under the strategy.
  constexpr std::uint32_t kSteps = 2000;
  std::atomic<std::uint32_t> word{0};
  const sync::WaitStrategy ws = GetParam();
  std::thread peer([&] {
    for (std::uint32_t v = 0; v < kSteps; v += 2) {
      EXPECT_EQ(sync::wait_while_equal(word, v, ws), v + 1);
      word.store(v + 2, std::memory_order_release);
      sync::notify_one(word);
    }
  });
  for (std::uint32_t v = 0; v < kSteps; v += 2) {
    word.store(v + 1, std::memory_order_release);
    sync::notify_one(word);
    EXPECT_EQ(sync::wait_while_equal(word, v + 1, ws), v + 2);
  }
  peer.join();
  EXPECT_EQ(word.load(), kSteps);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, WaiterTest,
    ::testing::Values(sync::WaitStrategy::block(),
                      sync::WaitStrategy::spin_then_park(64),
                      sync::WaitStrategy::spin()),
    [](const auto& info) {
      switch (info.param.mode) {
        case sync::WaitMode::Block: return "Block";
        case sync::WaitMode::SpinThenPark: return "SpinThenPark";
        case sync::WaitMode::Spin: return "Spin";
      }
      return "Unknown";
    });

// ---------------------------------------------------------------------------
// ShardedCounter
// ---------------------------------------------------------------------------

TEST(ShardedCounter, SingleThreadExact) {
  sync::ShardedCounter c;
  EXPECT_EQ(c.read(), 0u);
  for (int i = 0; i < 1000; ++i) c.add();
  c.add(234);
  EXPECT_EQ(c.read(), 1234u);
}

TEST(ShardedCounter, ConcurrentIncrementsSumExactly) {
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  sync::ShardedCounter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add();
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.read(), kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// Combiner: the counter protocol under real-thread contention
// ---------------------------------------------------------------------------

TEST(Combiner, StressKeepsExclusionAndLosesNoWork) {
  // Four announcers race for the role at whatever interleavings the
  // scheduler serves: some win and combine, most lose and leave after
  // their single RMW, trusting the active round to absorb them. Whatever
  // mix fires, process() stays mutually exclusive and every announced
  // unit is drained exactly once.
  sync::Combiner combiner;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  std::atomic<int> work{0};
  std::atomic<long> processed{0};
  std::atomic<int> in_process{0};
  std::atomic<bool> violated{false};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int op = 0; op < kOpsPerThread; ++op) {
        work.fetch_add(1);
        combiner.run([&] {
          if (in_process.fetch_add(1) != 0) violated = true;
          processed.fetch_add(work.exchange(0));
          in_process.fetch_sub(1);
        });
      }
    });
  for (auto& th : threads) th.join();

  EXPECT_FALSE(violated.load()) << "process() ran concurrently";
  EXPECT_EQ(work.load(), 0) << "announced work left undrained";
  EXPECT_EQ(processed.load(), long{kThreads} * kOpsPerThread);
}

// ---------------------------------------------------------------------------
// FifoQueue: randomized concurrent linearizability vs model replay
// ---------------------------------------------------------------------------

/// One worker operation, recorded as it executed concurrently. Tickets are
/// stamped by the queue under its lock, so sorting inserts by ticket
/// recovers the exact serialization order of the concurrent run.
struct Op {
  enum Kind { Insert, Release, Renew } kind;
  int slot;             ///< request slot index within the worker
  Ticket ticket;        ///< stamped by insert / renew (the renewal's)
  Ticket old_ticket;    ///< renew: the released request's ticket
};

struct WorkerLog {
  std::vector<Op> ops;
  std::vector<Request> slots;  ///< enough slots that none is ever reused
};

/// Concurrent phase: `workers` threads hammer one queue with
/// insert/release/release_and_renew in random mixes; grants are observed
/// by the sink in announcement order. Returns per-worker logs + the
/// grant-announcement ticket sequence.
struct ConcurrentRun {
  std::vector<WorkerLog> logs;
  std::vector<Ticket> grant_order;
};

ConcurrentRun run_concurrent(int workers, int cycles, std::uint64_t seed) {
  ConcurrentRun run;
  run.logs.resize(static_cast<std::size_t>(workers));
  for (WorkerLog& log : run.logs)
    log.slots.resize(static_cast<std::size_t>(cycles) + 1);

  std::mutex grant_mu;
  GrantFn sink([&](Request& r) {
    // Called with the queue lock held: the announcement order is the
    // queue's own serialization of grants.
    {
      std::lock_guard lock(grant_mu);
      run.grant_order.push_back(r.ticket);
    }
    // Delivery, as the runtime would do it: wake the parked owner.
    sync::notify_all(r.state);
  });
  FifoQueue queue(&sink);

  std::atomic<int> write_holders{0};
  std::atomic<int> read_holders{0};
  std::atomic<bool> violation{false};

  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      WorkerLog& log = run.logs[static_cast<std::size_t>(w)];
      Xoshiro256 rng(seed + static_cast<std::uint64_t>(w) * 7919);
      int slot = 0;
      log.slots[0].mode =
          rng.below(2) == 0 ? AccessMode::Read : AccessMode::Write;
      queue.insert(log.slots[0]);
      log.ops.push_back({Op::Insert, 0, log.slots[0].ticket, 0});
      for (int c = 0; c < cycles; ++c) {
        Request& cur = log.slots[static_cast<std::size_t>(slot)];
        // Wait for our grant through the same waiter the runtime uses.
        (void)sync::wait_while_equal(cur.state, RequestState::Requested,
                                     sync::WaitStrategy::spin_then_park(32));
        // Invariant window: writers exclusive, readers share.
        if (cur.mode == AccessMode::Write) {
          if (write_holders.fetch_add(1) != 0 || read_holders.load() != 0)
            violation = true;
          for (int i = 0; i < 50; ++i) sync::cpu_relax();
          write_holders.fetch_sub(1);
        } else {
          read_holders.fetch_add(1);
          if (write_holders.load() != 0) violation = true;
          for (int i = 0; i < 50; ++i) sync::cpu_relax();
          read_holders.fetch_sub(1);
        }
        const bool last = c + 1 == cycles;
        if (!last && rng.below(4) != 0) {
          // release_and_renew into a fresh slot (random next mode).
          Request& next = log.slots[static_cast<std::size_t>(slot + 1)];
          next.mode =
              rng.below(2) == 0 ? AccessMode::Read : AccessMode::Write;
          queue.release_and_renew(cur, next);
          log.ops.push_back({Op::Renew, slot + 1, next.ticket, cur.ticket});
          ++slot;
        } else {
          queue.release(cur);
          log.ops.push_back({Op::Release, slot, 0, cur.ticket});
          if (last) break;
          Request& next = log.slots[static_cast<std::size_t>(slot + 1)];
          next.mode =
              rng.below(2) == 0 ? AccessMode::Read : AccessMode::Write;
          queue.insert(next);
          log.ops.push_back({Op::Insert, slot + 1, next.ticket, 0});
          ++slot;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(violation.load())
      << "write exclusivity / read sharing violated during concurrent run";
  EXPECT_EQ(queue.size(), 0u);
  return run;
}

TEST(QueueLinearizability, ConcurrentMatchesModelReplay) {
  constexpr int kWorkers = 6;
  constexpr int kCycles = 60;
  const ConcurrentRun run = run_concurrent(kWorkers, kCycles, /*seed=*/1234);

  // Grant announcements must be monotone in ticket: the FIFO frontier only
  // moves forward.
  for (std::size_t i = 1; i < run.grant_order.size(); ++i)
    ASSERT_LT(run.grant_order[i - 1], run.grant_order[i])
        << "grant announcements out of ticket order at index " << i;

  // Single-threaded model replay: apply every worker's op sequence on a
  // fresh queue, scheduling greedily under two constraints — per-worker
  // program order, and global ticket order for operations that take a FIFO
  // position (insert and the renewal half of release_and_renew). If the
  // concurrent execution was linearizable in ticket order, the replay
  // never gets stuck and announces the identical grant sequence.
  std::vector<Ticket> model_grants;
  GrantFn model_sink([&](Request& r) { model_grants.push_back(r.ticket); });
  FifoQueue model(&model_sink);

  // Fresh request objects for the replay, keyed by original ticket: the
  // model queue re-stamps tickets, and because insertions are replayed in
  // ticket order it assigns each request its original number (asserted).
  std::map<Ticket, Request> replay;
  for (const WorkerLog& log : run.logs)
    for (const Op& op : log.ops)
      if (op.kind != Op::Release) {
        Request& r = replay[op.ticket];
        // Mode lives in the worker's slot record.
        r.mode = log.slots[static_cast<std::size_t>(op.slot)].mode;
      }

  std::vector<std::size_t> next_op(run.logs.size(), 0);
  Ticket next_insert_ticket = 0;
  for (;;) {
    bool progressed = false;
    bool all_done = true;
    for (std::size_t w = 0; w < run.logs.size(); ++w) {
      const WorkerLog& log = run.logs[w];
      if (next_op[w] >= log.ops.size()) continue;
      all_done = false;
      const Op& op = log.ops[next_op[w]];
      const auto granted = [&](Ticket t) {
        return replay[t].state.load(std::memory_order_relaxed) ==
               RequestState::Granted;
      };
      bool applied = false;
      switch (op.kind) {
        case Op::Insert:
          if (op.ticket == next_insert_ticket) {
            model.insert(replay[op.ticket]);
            ASSERT_EQ(replay[op.ticket].ticket, op.ticket)
                << "model re-stamped a different ticket";
            ++next_insert_ticket;
            applied = true;
          }
          break;
        case Op::Release:
          if (granted(op.old_ticket)) {
            model.release(replay[op.old_ticket]);
            applied = true;
          }
          break;
        case Op::Renew:
          if (op.ticket == next_insert_ticket && granted(op.old_ticket)) {
            model.release_and_renew(replay[op.old_ticket],
                                    replay[op.ticket]);
            ASSERT_EQ(replay[op.ticket].ticket, op.ticket);
            ++next_insert_ticket;
            applied = true;
          }
          break;
      }
      if (applied) {
        ++next_op[w];
        progressed = true;
      }
    }
    if (all_done) break;
    ASSERT_TRUE(progressed)
        << "model replay stuck: concurrent run not linearizable in "
           "ticket order";
  }

  EXPECT_EQ(model_grants, run.grant_order)
      << "single-threaded replay granted a different sequence than the "
         "concurrent run";
}

TEST(QueueLinearizability, ManySeeds) {
  for (const std::uint64_t seed : {7u, 21u, 99u})
    run_concurrent(/*workers=*/4, /*cycles=*/30, seed);
}

// ---------------------------------------------------------------------------
// Grant sink re-entrancy assert (always-on protocol assert)
// ---------------------------------------------------------------------------

TEST(QueueReentrancy, SinkReenteringQueueAsserts) {
#if !ORWL_PROTOCOL_ASSERTS_ENABLED
  GTEST_SKIP() << "protocol asserts compiled out "
                  "(ORWL_DISABLE_PROTOCOL_ASSERTS)";
#else
  FifoQueue* queue_ptr = nullptr;
  Request extra;
  extra.mode = AccessMode::Write;
  GrantFn sink([&](Request&) {
    if (queue_ptr) queue_ptr->insert(extra);  // forbidden re-entry
  });
  FifoQueue queue(&sink);
  queue_ptr = &queue;
  Request w;
  w.mode = AccessMode::Write;
  EXPECT_THROW(queue.insert(w), ContractError);
  // The RAII announce scope must have cleared the marker: legal use from
  // this thread still works afterwards.
  queue_ptr = nullptr;
  Request w2;
  w2.mode = AccessMode::Write;
  FifoQueue queue2(&sink);
  queue2.insert(w2);
  EXPECT_EQ(w2.state.load(), RequestState::Granted);
#endif
}

// ---------------------------------------------------------------------------
// Lost-wakeup regression: release lands between the waiter's load and park
// ---------------------------------------------------------------------------

/// Build the 2-request race on a real FifoQueue and run one schedule:
/// "holder" owns the location, "waiter" is queued behind it. The waiter
/// performs Handle::acquire's two phases explicitly — load the state, then
/// park — with a schedule point between them, so the holder's release (and
/// the grant announcement) can land exactly inside that window. A lost
/// wakeup turns such a schedule into a deadlock.
bool run_lost_wakeup_schedule(model::Chooser& chooser,
                              std::vector<int>* trace_out,
                              bool* hit_window) {
  GrantFn sink([](Request& req) {
    // Delivery as the runtime does it: wake whoever parked on the state.
    sync::notify_all(req.state);
  });
  FifoQueue queue(&sink);
  Request holder_req;
  Request waiter_req;
  holder_req.mode = AccessMode::Write;
  waiter_req.mode = AccessMode::Write;
  queue.insert(holder_req);  // granted immediately
  queue.insert(waiter_req);  // queued behind the holder

  bool in_window = false;
  bool released_in_window = false;
  model::Scheduler sched;
  sched.spawn("waiter", [&](model::ThreadCtx& ctx) {
    // order: acquire — Handle::acquire's fast-path load.
    if (waiter_req.state.load(std::memory_order_acquire) !=
        RequestState::Granted) {
      in_window = true;
      ctx.yield();  // the load/park window: the release may land here
      in_window = false;
      ctx.wait_until([&] {
        // order: acquire — grant consumption, pairs with the queue's
        // release store.
        return waiter_req.state.load(std::memory_order_acquire) ==
               RequestState::Granted;
      });
    }
    queue.release(waiter_req);
  });
  sched.spawn("holder", [&](model::ThreadCtx& ctx) {
    ctx.yield();
    queue.release(holder_req);
    if (in_window) released_in_window = true;
  });
  const auto res = sched.run(chooser);
  if (trace_out) *trace_out = sched.trace();
  if (hit_window && released_in_window) *hit_window = true;
  return res == model::Scheduler::Result::Completed &&
         sched.error().empty();
}

TEST(LostWakeupRegression, ReleaseInsideLoadParkWindowExhaustive) {
  // Every schedule of the race must complete — including the ones where
  // the release fires inside the waiter's load/park window, which must be
  // reached at least once or the regression is not actually exercised.
  model::DfsChooser dfs;
  bool hit_window = false;
  do {
    std::vector<int> trace;
    ASSERT_TRUE(run_lost_wakeup_schedule(dfs, &trace, &hit_window))
        << "lost wakeup (deadlock) under schedule "
        << model::format_trace(trace);
  } while (dfs.next_schedule());
  EXPECT_GT(dfs.schedules(), 1u);
  EXPECT_TRUE(hit_window)
      << "no explored schedule released inside the load/park window";
}

TEST(LostWakeupRegression, ReleaseInsideLoadParkWindowSeeded) {
  for (const std::uint64_t seed : {3u, 17u, 42u, 1009u, 65537u}) {
    model::SeededChooser chooser(seed);
    std::vector<int> trace;
    ASSERT_TRUE(run_lost_wakeup_schedule(chooser, &trace, nullptr))
        << "lost wakeup (deadlock) under seed " << seed << ", schedule "
        << model::format_trace(trace);
  }
}

TEST(LostWakeupRegression, FutexRaceStress) {
  // Real-thread companion: the notifier fires with no delay, so across
  // iterations the waiter is caught at every point of its load -> park
  // path, including between the futex value check and the park syscall.
  for (int iter = 0; iter < 1000; ++iter) {
    std::atomic<std::uint32_t> word{0};
    std::thread notifier([&] {
      word.store(1, std::memory_order_release);
      sync::notify_all(word);
    });
    EXPECT_EQ(sync::wait_while_equal(word, 0u, sync::WaitStrategy::block()),
              1u);
    notifier.join();
  }
}

// ---------------------------------------------------------------------------
// Process-shared futex (sync/shared_futex.h): the cross-address-space
// parking point the ipc:: transport stands on. The core waiter's PRIVATE
// futexes cannot be woken from another process — these cases prove the
// shared flavour can, with the waker in a forked child and the futex word
// in a MAP_SHARED page.
// ---------------------------------------------------------------------------

#ifdef __linux__

TEST(SharedFutex, RealFutexBacksLinuxBuilds) {
  // The yield fallback would still be correct but silently slow — on
  // Linux the real process-shared futex must be in force.
  EXPECT_TRUE(sync::shared_futex_available());
}

TEST(SharedFutex, CrossProcessWakeReachesParkedParent) {
  // Word lives in an anonymous MAP_SHARED page; the parent parks on it,
  // the forked child publishes a new value and wakes. With PRIVATE
  // futexes (the sync/waiter.h flavour) the wake would never arrive and
  // the bounded wait would time out — so Changed here is exactly the
  // property the shm transport needs.
  void* page = ::mmap(nullptr, sizeof(std::atomic<std::uint32_t>),
                      PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                      -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* word = new (page) std::atomic<std::uint32_t>(0);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // order: release — publishes the value the parent's acquire observes.
    word->store(1, std::memory_order_release);
    sync::shared_futex_wake_all(*word);
    ::_exit(0);
  }

  std::uint32_t seen = 0;
  const auto res = sync::wait_while_equal_shared(
      *word, 0u, sync::WaitStrategy::block(), 10'000'000'000, &seen);
  EXPECT_EQ(res, sync::SharedWait::Changed);
  EXPECT_EQ(seen, 1u);

  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ::munmap(page, sizeof(std::atomic<std::uint32_t>));
}

TEST(SharedFutex, BoundedWaitTimesOutWithNoWaker) {
  // Dead peers wake nobody: every shared wait is bounded, and expiry with
  // the word unchanged reports TimedOut (the caller's cue to probe
  // liveness — ipc::Channel does exactly that).
  std::atomic<std::uint32_t> word{0};
  std::uint32_t seen = 42;
  const auto res = sync::wait_while_equal_shared(
      word, 0u, sync::WaitStrategy::block(), 20'000'000, &seen);
  EXPECT_EQ(res, sync::SharedWait::TimedOut);
  EXPECT_EQ(seen, 0u);
}

#endif  // __linux__

}  // namespace
}  // namespace orwl
