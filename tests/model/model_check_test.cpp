// Protocol model checker: drives the REAL FifoQueue / Request state machine
// through the deterministic virtual-thread scheduler and asserts the
// paper-level invariants over every explored schedule (see model/protocol.h).
//
// Two regimes:
//   * bounded-exhaustive — DfsChooser enumerates EVERY schedule of small
//     2-handle worlds (writer/writer, writer/reader, reader/reader)
//   * seeded corpus      — SeededChooser explores fixed pseudo-random
//     schedules of 3-4-task worlds too large to exhaust

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/protocol.h"
#include "model/vthread.h"
#include "sync/combiner.h"

namespace orwl::model {
namespace {

using Access = TaskSpec::Access;

/// Run every schedule of `tasks` to exhaustion; fail on the first schedule
/// that violates an invariant, printing its trace for replay. Writes the
/// number of schedules explored to `*explored`.
void explore_exhaustively(const std::vector<TaskSpec>& tasks,
                          int num_locations, std::uint64_t max_schedules,
                          std::uint64_t* explored) {
  DfsChooser dfs;
  do {
    WorldResult r = run_world(tasks, num_locations, dfs);
    ASSERT_TRUE(r.completed)
        << r.failure << "\nschedule: " << format_trace(r.trace);
    ASSERT_LT(dfs.schedules(), max_schedules)
        << "exhaustive exploration exceeded the schedule budget — "
           "shrink the configuration";
  } while (dfs.next_schedule());
  *explored = dfs.schedules();
}

// ---------------------------------------------------------------------------
// Bounded-exhaustive: 2 handles, every schedule
// ---------------------------------------------------------------------------

TEST(ModelExhaustive, TwoWritersOneLocation) {
  const std::vector<TaskSpec> tasks = {
      {"w0", {Access{0, AccessMode::Write}}, 2},
      {"w1", {Access{0, AccessMode::Write}}, 2},
  };
  std::uint64_t n = 0;
  explore_exhaustively(tasks, 1, 1u << 20, &n);
  // The tree must branch: both interleavings of the two writers exist.
  EXPECT_GT(n, 1u);
}

TEST(ModelExhaustive, WriterAndReaderOneLocation) {
  const std::vector<TaskSpec> tasks = {
      {"w", {Access{0, AccessMode::Write}}, 2},
      {"r", {Access{0, AccessMode::Read}}, 2},
  };
  std::uint64_t n = 0;
  explore_exhaustively(tasks, 1, 1u << 20, &n);
  EXPECT_GT(n, 1u);
}

TEST(ModelExhaustive, TwoReadersOverlap) {
  // Concurrent readers are the schedule-rich case: both may hold the
  // location at once, so the hold-window yields genuinely interleave.
  const std::vector<TaskSpec> tasks = {
      {"r0", {Access{0, AccessMode::Read}}, 2},
      {"r1", {Access{0, AccessMode::Read}}, 2},
  };
  std::uint64_t n = 0;
  explore_exhaustively(tasks, 1, 1u << 20, &n);
  EXPECT_GT(n, 1u);
}

TEST(ModelExhaustive, CrossedWritersTwoLocations) {
  // The classic lock-ordering deadlock shape: t0 takes L0 then L1, t1
  // takes L1 then L0. Under ORWL's canonical priming + renewal discipline
  // this is deadlock-free — every schedule must terminate.
  const std::vector<TaskSpec> tasks = {
      {"t0",
       {Access{0, AccessMode::Write}, Access{1, AccessMode::Write}},
       2},
      {"t1",
       {Access{1, AccessMode::Write}, Access{0, AccessMode::Write}},
       2},
  };
  std::uint64_t n = 0;
  explore_exhaustively(tasks, 2, 1u << 21, &n);
  EXPECT_GT(n, 1u);
}

// ---------------------------------------------------------------------------
// Combiner: bounded-exhaustive DFS over the counter protocol itself
// ---------------------------------------------------------------------------

TEST(ModelExhaustive, CombinerAbsorbsAnnouncementsMidRound) {
  // The queue-level worlds cannot reach the combiner's contended window:
  // in a cooperative world a whole combine() pass runs inside ONE protocol
  // step, so no round is ever in progress when the next vthread announces.
  // This world drives sync::Combiner DIRECTLY with a process function that
  // yields mid-round, making "a round in progress" a schedulable state:
  // an announcer's fetch_add can land while another thread holds the
  // role, and its run() returns at once, leaving the work to the active
  // round's closing fetch_sub.
  //
  // Invariants, every schedule:
  //   * mutual exclusion — process() never runs concurrently with itself
  //   * no lost work     — every announced unit is drained exactly once
  //   * termination      — every run() returns
  // And across the whole exploration: some run() returned without calling
  // process() (an announcement absorbed by an active round), and some
  // combiner processed a second round for work announced mid-round — the
  // window is genuinely covered, not skipped.
  constexpr int kAnnouncers = 3;
  std::uint64_t absorbed = 0;
  std::uint64_t repeated = 0;
  DfsChooser dfs;
  do {
    sync::Combiner combiner;
    int announced = 0;   // work units published but not yet drained
    int processed = 0;   // work units drained by some process() round
    int in_process = 0;  // mutual-exclusion witness

    Scheduler sched;
    for (int a = 0; a < kAnnouncers; ++a) {
      sched.spawn("a" + std::to_string(a), [&](ThreadCtx& ctx) {
        ++announced;  // the unit of work this announcement covers
        int rounds = 0;
        combiner.run([&] {
          ++rounds;
          if (++in_process != 1)
            throw std::logic_error("combiner mutual exclusion violated");
          ctx.yield();  // a round in progress: others may announce now
          processed += announced;  // catch up completely
          announced = 0;
          --in_process;
        });
        if (rounds == 0) ++absorbed;
        if (rounds > 1) ++repeated;
      });
    }

    ASSERT_EQ(sched.run(dfs), Scheduler::Result::Completed)
        << sched.error() << "\nschedule: " << format_trace(sched.trace());
    ASSERT_TRUE(sched.error().empty())
        << sched.error() << "\nschedule: " << format_trace(sched.trace());
    ASSERT_EQ(announced, 0)
        << "announced work left undrained\nschedule: "
        << format_trace(sched.trace());
    ASSERT_EQ(processed, kAnnouncers)
        << "schedule: " << format_trace(sched.trace());
    ASSERT_LT(dfs.schedules(), std::uint64_t{1} << 20)
        << "exhaustive exploration exceeded the schedule budget — "
           "shrink the configuration";
  } while (dfs.next_schedule());

  EXPECT_GT(dfs.schedules(), 1u);
  EXPECT_GT(absorbed, 0u);
  EXPECT_GT(repeated, 0u);
}

/// Fixed seed corpus — failures name the seed, so a repro is one run.
const std::uint64_t kSeeds[] = {1,  2,  3,  5,  8,   13,  21,  34,
                                55, 89, 144, 233, 377, 610, 987, 1597};

// ---------------------------------------------------------------------------
// Remote world: the shm-transport seam (ipc/transport.h) as a model —
// ring publish/consume is an explicit schedule point (see run_remote_world)
// ---------------------------------------------------------------------------

/// DFS driver for the remote world, mirroring explore_exhaustively.
void explore_remote_exhaustively(const std::vector<TaskSpec>& tasks,
                                 int num_locations,
                                 std::uint64_t max_schedules,
                                 std::uint64_t* explored) {
  DfsChooser dfs;
  do {
    WorldResult r = run_remote_world(tasks, num_locations, dfs);
    ASSERT_TRUE(r.completed)
        << r.failure << "\nschedule: " << format_trace(r.trace);
    ASSERT_LT(dfs.schedules(), max_schedules)
        << "exhaustive exploration exceeded the schedule budget — "
           "shrink the configuration";
  } while (dfs.next_schedule());
  *explored = dfs.schedules();
}

TEST(ModelRemoteExhaustive, LocalAndRemoteWriterOneLocation) {
  // The acceptance shape: one in-process writer (the owner's own task) and
  // one writer whose every operation crosses the model rings. Every
  // schedule — including pumps lagging arbitrarily far behind publishes —
  // must preserve FIFO, exclusivity and termination. One round each: four
  // vthreads (two tasks + two pumps) make multi-round worlds infeasible
  // to exhaust; renewal traffic is covered by the seeded corpus below.
  const std::vector<TaskSpec> tasks = {
      {"local-w", {Access{0, AccessMode::Write}}, 1, /*remote=*/false},
      {"remote-w", {Access{0, AccessMode::Write}}, 1, /*remote=*/true},
  };
  std::uint64_t n = 0;
  explore_remote_exhaustively(tasks, 1, 1u << 22, &n);
  EXPECT_GT(n, 1u);
}

TEST(ModelRemoteExhaustive, RemoteReaderAgainstLocalWriter) {
  // Reader grants can overlap the drain window: a remote Read section may
  // still be open (proxy Granted) while the local writer's request sits
  // queued behind it and the grant ring holds undelivered announcements.
  const std::vector<TaskSpec> tasks = {
      {"local-w", {Access{0, AccessMode::Write}}, 1, /*remote=*/false},
      {"remote-r", {Access{0, AccessMode::Read}}, 1, /*remote=*/true},
  };
  std::uint64_t n = 0;
  explore_remote_exhaustively(tasks, 1, 1u << 22, &n);
  EXPECT_GT(n, 1u);
}

TEST(ModelRemoteSeeded, MixedLocalRemoteTwoLocations) {
  // Too large to exhaust: two remote handles (slots exercise the proxy
  // table) plus two local tasks over two locations, seeded corpus.
  const std::vector<TaskSpec> tasks = {
      {"local-w0", {Access{0, AccessMode::Write}}, 3, /*remote=*/false},
      {"local-r1", {Access{1, AccessMode::Read}}, 3, /*remote=*/false},
      {"remote-x",
       {Access{0, AccessMode::Write}, Access{1, AccessMode::Write}},
       3,
       /*remote=*/true},
  };
  for (const std::uint64_t seed : kSeeds) {
    SeededChooser chooser(seed);
    WorldResult r = run_remote_world(tasks, 2, chooser);
    ASSERT_TRUE(r.completed)
        << r.failure << "\nseed: " << seed
        << "\nschedule: " << format_trace(r.trace);
  }
}

// ---------------------------------------------------------------------------
// Seeded corpus: larger worlds, fixed reproducible schedules
// ---------------------------------------------------------------------------

void explore_seeded(const std::vector<TaskSpec>& tasks, int num_locations) {
  for (const std::uint64_t seed : kSeeds) {
    SeededChooser chooser(seed);
    WorldResult r = run_world(tasks, num_locations, chooser);
    ASSERT_TRUE(r.completed)
        << r.failure << "\nseed: " << seed
        << "\nschedule: " << format_trace(r.trace);
  }
}

TEST(ModelSeeded, FourTasksTwoLocationsMixedModes) {
  const std::vector<TaskSpec> tasks = {
      {"w0", {Access{0, AccessMode::Write}}, 3},
      {"r0", {Access{0, AccessMode::Read}}, 3},
      {"w1", {Access{1, AccessMode::Write}}, 3},
      {"x",
       {Access{0, AccessMode::Read}, Access{1, AccessMode::Read}},
       3},
  };
  explore_seeded(tasks, 2);
}

TEST(ModelSeeded, RingOfWritersWithNeighbourReads) {
  // The paper's benchmark shape: task i owns (writes) location i and reads
  // its neighbour — a dependence cycle in the task graph that the ordered
  // renewal discipline must still drain every round.
  const std::vector<TaskSpec> tasks = {
      {"t0",
       {Access{0, AccessMode::Write}, Access{1, AccessMode::Read}},
       3},
      {"t1",
       {Access{1, AccessMode::Write}, Access{2, AccessMode::Read}},
       3},
      {"t2",
       {Access{2, AccessMode::Write}, Access{0, AccessMode::Read}},
       3},
  };
  explore_seeded(tasks, 3);
}

TEST(ModelSeeded, WriterContentionSingleLocation) {
  const std::vector<TaskSpec> tasks = {
      {"w0", {Access{0, AccessMode::Write}}, 4},
      {"w1", {Access{0, AccessMode::Write}}, 4},
      {"w2", {Access{0, AccessMode::Write}}, 4},
      {"w3", {Access{0, AccessMode::Write}}, 4},
  };
  explore_seeded(tasks, 1);
}

// ---------------------------------------------------------------------------
// Scheduler self-checks
// ---------------------------------------------------------------------------

TEST(ModelScheduler, DetectsGenuineDeadlock) {
  // Two threads each waiting on a flag only the other would set — the
  // scheduler must report Deadlock (after re-evaluating predicates), not
  // hang.
  bool a = false;
  bool b = false;
  Scheduler sched;
  sched.spawn("p", [&](ThreadCtx& ctx) {
    ctx.wait_until([&] { return a; });
    b = true;
  });
  sched.spawn("q", [&](ThreadCtx& ctx) {
    ctx.wait_until([&] { return b; });
    a = true;
  });
  SeededChooser chooser(7);
  EXPECT_EQ(sched.run(chooser), Scheduler::Result::Deadlock);
  EXPECT_EQ(sched.deadlocked().size(), 2u);
}

TEST(ModelScheduler, NoLostWakeupAcrossParkWindow) {
  // Thread r observes "not ready", then parks; thread w sets ready while r
  // sits between the observation and the park. The scheduler re-evaluates
  // r's predicate at every step, so the wakeup cannot be lost.
  bool ready = false;
  bool r_done = false;
  DfsChooser dfs;
  do {
    ready = false;
    r_done = false;
    Scheduler s;
    s.spawn("r", [&](ThreadCtx& ctx) {
      if (!ready) {
        ctx.yield();  // the load/park window
        ctx.wait_until([&] { return ready; });
      }
      r_done = true;
    });
    s.spawn("w", [&](ThreadCtx& ctx) {
      ctx.yield();
      ready = true;
    });
    ASSERT_EQ(s.run(dfs), Scheduler::Result::Completed)
        << "schedule: " << format_trace(s.trace());
    ASSERT_TRUE(r_done);
  } while (dfs.next_schedule());
  EXPECT_GT(dfs.schedules(), 1u);
}

TEST(ModelScheduler, DfsEnumeratesAllInterleavings) {
  // Two threads, one yield each: C(2,1)-style token orders. Count distinct
  // traces; DFS must cover more than one and terminate.
  std::vector<std::vector<int>> traces;
  DfsChooser dfs;
  do {
    Scheduler s;
    s.spawn("a", [](ThreadCtx& ctx) { ctx.yield(); });
    s.spawn("b", [](ThreadCtx& ctx) { ctx.yield(); });
    ASSERT_EQ(s.run(dfs), Scheduler::Result::Completed);
    traces.push_back(s.trace());
  } while (dfs.next_schedule());
  EXPECT_GT(traces.size(), 1u);
  for (std::size_t i = 1; i < traces.size(); ++i)
    EXPECT_NE(traces[i - 1], traces[i]) << "duplicate schedule explored";
}

}  // namespace
}  // namespace orwl::model
