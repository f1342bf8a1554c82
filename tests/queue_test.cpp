// Unit tests for the ORWL FifoQueue: strict insertion order, shared reads,
// exclusive writes, renewal semantics.

#include <gtest/gtest.h>

#include <functional>
#include <span>
#include <stdexcept>
#include <vector>

#include "orwl/queue.h"
#include "support/assert.h"

namespace orwl {
namespace {

class QueueTest : public ::testing::Test {
 protected:
  QueueTest() : sink_([this](Request& r) { granted_.push_back(&r); }),
                queue_(&sink_) {}

  Request make(AccessMode mode) {
    Request r;
    r.mode = mode;
    return r;
  }

  GrantFn<std::function<void(Request&)>> sink_;
  FifoQueue queue_;
  std::vector<Request*> granted_;
};

TEST_F(QueueTest, FirstRequestGrantedImmediately) {
  Request w = make(AccessMode::Write);
  queue_.insert(w);
  EXPECT_EQ(w.state, RequestState::Granted);
  ASSERT_EQ(granted_.size(), 1u);
  EXPECT_EQ(granted_[0], &w);
}

TEST_F(QueueTest, WriteIsExclusive) {
  Request w1 = make(AccessMode::Write);
  Request w2 = make(AccessMode::Write);
  Request r1 = make(AccessMode::Read);
  queue_.insert(w1);
  queue_.insert(w2);
  queue_.insert(r1);
  EXPECT_EQ(w1.state, RequestState::Granted);
  EXPECT_EQ(w2.state, RequestState::Requested);
  EXPECT_EQ(r1.state, RequestState::Requested);
}

TEST_F(QueueTest, ConsecutiveReadsShareTheGrant) {
  Request r1 = make(AccessMode::Read);
  Request r2 = make(AccessMode::Read);
  Request r3 = make(AccessMode::Read);
  queue_.insert(r1);
  queue_.insert(r2);
  queue_.insert(r3);
  EXPECT_EQ(r1.state, RequestState::Granted);
  EXPECT_EQ(r2.state, RequestState::Granted);
  EXPECT_EQ(r3.state, RequestState::Granted);
  EXPECT_EQ(granted_.size(), 3u);
}

TEST_F(QueueTest, ReadRunStopsAtWrite) {
  Request r1 = make(AccessMode::Read);
  Request w = make(AccessMode::Write);
  Request r2 = make(AccessMode::Read);
  queue_.insert(r1);
  queue_.insert(w);
  queue_.insert(r2);
  EXPECT_EQ(r1.state, RequestState::Granted);
  EXPECT_EQ(w.state, RequestState::Requested);
  EXPECT_EQ(r2.state, RequestState::Requested)
      << "a read behind a queued write must wait (strict FIFO order)";
}

TEST_F(QueueTest, ReleaseAdvancesToNextWrite) {
  Request w1 = make(AccessMode::Write);
  Request w2 = make(AccessMode::Write);
  queue_.insert(w1);
  queue_.insert(w2);
  queue_.release(w1);
  EXPECT_EQ(w1.state, RequestState::Inactive);
  EXPECT_EQ(w2.state, RequestState::Granted);
}

TEST_F(QueueTest, WriteWaitsForAllReadersToRelease) {
  Request r1 = make(AccessMode::Read);
  Request r2 = make(AccessMode::Read);
  Request w = make(AccessMode::Write);
  queue_.insert(r1);
  queue_.insert(r2);
  queue_.insert(w);
  queue_.release(r1);
  EXPECT_EQ(w.state, RequestState::Requested);
  queue_.release(r2);
  EXPECT_EQ(w.state, RequestState::Granted);
}

TEST_F(QueueTest, MiddleReaderCanReleaseFirst) {
  Request r1 = make(AccessMode::Read);
  Request r2 = make(AccessMode::Read);
  queue_.insert(r1);
  queue_.insert(r2);
  queue_.release(r2);  // later reader releases before the first
  EXPECT_EQ(r1.state, RequestState::Granted);
  EXPECT_EQ(queue_.size(), 1u);
}

TEST_F(QueueTest, TicketsAreMonotonic) {
  Request a = make(AccessMode::Read);
  Request b = make(AccessMode::Write);
  Request c = make(AccessMode::Read);
  queue_.insert(a);
  queue_.insert(b);
  queue_.insert(c);
  EXPECT_LT(a.ticket, b.ticket);
  EXPECT_LT(b.ticket, c.ticket);
}

TEST_F(QueueTest, ReleaseUngrantedThrows) {
  Request w1 = make(AccessMode::Write);
  Request w2 = make(AccessMode::Write);
  queue_.insert(w1);
  queue_.insert(w2);
  EXPECT_THROW(queue_.release(w2), ContractError);
}

TEST_F(QueueTest, DoubleReleaseThrows) {
  Request w = make(AccessMode::Write);
  queue_.insert(w);
  queue_.release(w);
  EXPECT_THROW(queue_.release(w), ContractError);
}

TEST_F(QueueTest, DoubleInsertThrows) {
  Request w = make(AccessMode::Write);
  queue_.insert(w);
  EXPECT_THROW(queue_.insert(w), ContractError);
}

TEST_F(QueueTest, RenewKeepsCyclicOrder) {
  // Two writers alternating: the renewal must land *behind* the waiting
  // writer, never ahead of it.
  Request a1 = make(AccessMode::Write);
  Request a2 = make(AccessMode::Write);
  Request b1 = make(AccessMode::Write);
  queue_.insert(a1);
  queue_.insert(b1);
  queue_.release_and_renew(a1, a2);
  EXPECT_EQ(b1.state, RequestState::Granted);
  EXPECT_EQ(a2.state, RequestState::Requested);
  Request b2 = make(AccessMode::Write);
  queue_.release_and_renew(b1, b2);
  EXPECT_EQ(a2.state, RequestState::Granted);
  EXPECT_EQ(b2.state, RequestState::Requested);
}

TEST_F(QueueTest, RenewOnEmptyQueueRegrantsImmediately) {
  Request a1 = make(AccessMode::Write);
  Request a2 = make(AccessMode::Write);
  queue_.insert(a1);
  queue_.release_and_renew(a1, a2);
  EXPECT_EQ(a2.state, RequestState::Granted);
}

TEST_F(QueueTest, RenewRequiresGrantedCurrent) {
  Request w1 = make(AccessMode::Write);
  Request w2 = make(AccessMode::Write);
  Request next = make(AccessMode::Write);
  queue_.insert(w1);
  queue_.insert(w2);
  EXPECT_THROW(queue_.release_and_renew(w2, next), ContractError);
}

TEST_F(QueueTest, RenewWithSameRequestThrows) {
  Request w = make(AccessMode::Write);
  queue_.insert(w);
  EXPECT_THROW(queue_.release_and_renew(w, w), ContractError);
}

TEST_F(QueueTest, SnapshotReflectsOrder) {
  Request r = make(AccessMode::Read);
  Request w = make(AccessMode::Write);
  queue_.insert(r);
  queue_.insert(w);
  const auto snap = queue_.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].mode, AccessMode::Read);
  EXPECT_EQ(snap[0].state, RequestState::Granted);
  EXPECT_EQ(snap[1].mode, AccessMode::Write);
  EXPECT_EQ(snap[1].state, RequestState::Requested);
}

TEST_F(QueueTest, WriterReaderAlternationPattern) {
  // The LK23 frontier pattern: writer exports, reader consumes, repeated.
  Request w[4] = {make(AccessMode::Write), make(AccessMode::Write),
                  make(AccessMode::Write), make(AccessMode::Write)};
  Request r[4] = {make(AccessMode::Read), make(AccessMode::Read),
                  make(AccessMode::Read), make(AccessMode::Read)};
  queue_.insert(w[0]);
  queue_.insert(r[0]);
  for (int it = 0; it + 1 < 4; ++it) {
    EXPECT_EQ(w[it].state, RequestState::Granted);
    queue_.release_and_renew(w[it], w[it + 1]);
    EXPECT_EQ(r[it].state, RequestState::Granted);
    queue_.release_and_renew(r[it], r[it + 1]);
  }
  EXPECT_EQ(w[3].state, RequestState::Granted);
}

TEST(Queue, RequiresGrantSink) {
  EXPECT_THROW(FifoQueue(nullptr), ContractError);
}

// ---------------------------------------------------------------------------
// Ticket-ring mechanics: capacity, wraparound, quiescent growth
// ---------------------------------------------------------------------------

TEST_F(QueueTest, RingWrapsAroundManyLaps) {
  // Two alternating writers renewing for several multiples of the default
  // capacity: every ticket re-lands in an already-used ring slot, so a
  // wrong per-slot sequence walk (free -> occupied -> next lap) would
  // grant out of order or deadlock long before the loop ends.
  const int cycles = static_cast<int>(FifoQueue::kDefaultCapacity) * 3 + 7;
  Request a[2] = {make(AccessMode::Write), make(AccessMode::Write)};
  Request b[2] = {make(AccessMode::Write), make(AccessMode::Write)};
  queue_.insert(a[0]);
  queue_.insert(b[0]);
  for (int i = 0; i < cycles; ++i) {
    ASSERT_EQ(a[i % 2].state, RequestState::Granted) << "cycle " << i;
    queue_.release_and_renew(a[i % 2], a[(i + 1) % 2]);
    ASSERT_EQ(b[i % 2].state, RequestState::Granted) << "cycle " << i;
    queue_.release_and_renew(b[i % 2], b[(i + 1) % 2]);
  }
  // The first prime is announced on insert; after that every
  // release_and_renew announces exactly one successor — single
  // announcement across every lap.
  ASSERT_EQ(granted_.size(), 1u + 2u * static_cast<std::size_t>(cycles));
  // Strict a/b alternation held to the end.
  EXPECT_EQ(granted_.back(), &a[cycles % 2]);
  EXPECT_EQ(granted_[granted_.size() - 2], &b[(cycles - 1) % 2]);
  EXPECT_EQ(a[cycles % 2].state, RequestState::Granted);
  EXPECT_EQ(b[cycles % 2].state, RequestState::Requested);
}

TEST_F(QueueTest, ReserveOwnersGrowsPastInFlightBound) {
  EXPECT_EQ(queue_.capacity(), FifoQueue::kDefaultCapacity);
  // 1000 owners x 2 in-flight slots each must fit: the ring may never be
  // full when a renewal needs its slot before the release reclaims one.
  queue_.reserve_owners(1000, AccessMode::Read);
  EXPECT_GE(queue_.capacity(), 2u * 1000u + 2u);
  // Power-of-two capacity (ticket & mask indexing).
  EXPECT_EQ(queue_.capacity() & (queue_.capacity() - 1), 0u);
}

TEST_F(QueueTest, EnsureCapacityRebuildPreservesLiveQueue) {
  Request w1 = make(AccessMode::Write);
  Request w2 = make(AccessMode::Write);
  Request r1 = make(AccessMode::Read);
  queue_.insert(w1);
  queue_.insert(w2);
  queue_.insert(r1);
  const auto before = queue_.snapshot();
  queue_.ensure_capacity(FifoQueue::kDefaultCapacity * 4);
  EXPECT_GE(queue_.capacity(), FifoQueue::kDefaultCapacity * 4);
  // The quiescent rebuild re-seats every live ticket under the new mask:
  // same order, same states, and the protocol continues unharmed.
  const auto after = queue_.snapshot();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].ticket, before[i].ticket);
    EXPECT_EQ(after[i].state, before[i].state);
  }
  queue_.release(w1);
  EXPECT_EQ(w2.state, RequestState::Granted);
  queue_.release(w2);
  EXPECT_EQ(r1.state, RequestState::Granted);
}

TEST_F(QueueTest, EnsureCapacityBelowCurrentIsANoOp) {
  const std::size_t cap = queue_.capacity();
  queue_.ensure_capacity(1);
  EXPECT_EQ(queue_.capacity(), cap);
}

// ---------------------------------------------------------------------------
// Batched shared-read announcement (on_grant_batch)
// ---------------------------------------------------------------------------

/// Sink that records batch boundaries: singles through on_grant, runs
/// through on_grant_batch, and the flattened announcement order of both.
struct BatchRecordingSink final : GrantSink {
  // sink-contract: no-queue-reentry — records the pointer and returns.
  void on_grant(Request& req) override {
    singles.push_back(&req);
    order.push_back(&req);
  }
  // sink-contract: no-queue-reentry — records the run and returns.
  void on_grant_batch(std::span<Request* const> reqs) override {
    batches.emplace_back(reqs.begin(), reqs.end());
    for (Request* r : reqs) order.push_back(r);
  }
  std::vector<Request*> singles;
  std::vector<std::vector<Request*>> batches;
  std::vector<Request*> order;  ///< every grant, in announcement order
};

TEST(QueueBatch, ReaderRunAnnouncedAsOneBatch) {
  BatchRecordingSink sink;
  FifoQueue queue(&sink);
  Request w;
  w.mode = AccessMode::Write;
  Request r[3];
  for (Request& req : r) req.mode = AccessMode::Read;
  queue.insert(w);  // granted alone at the head: a single, never a batch
  for (Request& req : r) queue.insert(req);
  ASSERT_EQ(sink.singles.size(), 1u);
  EXPECT_EQ(sink.singles[0], &w);
  EXPECT_TRUE(sink.batches.empty());

  // Releasing the writer uncovers all three readers in ONE combiner pass:
  // one on_grant_batch call, run in ticket order, all Granted before the
  // sink heard anything.
  queue.release(w);
  ASSERT_EQ(sink.batches.size(), 1u);
  ASSERT_EQ(sink.batches[0].size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.batches[0][static_cast<std::size_t>(i)], &r[i]);
    EXPECT_EQ(r[i].state, RequestState::Granted);
  }
  EXPECT_EQ(sink.singles.size(), 1u) << "no reader announced twice";
}

TEST(QueueBatch, SingleUncoveredReaderStaysUnbatched) {
  BatchRecordingSink sink;
  FifoQueue queue(&sink);
  Request w;
  w.mode = AccessMode::Write;
  Request r;
  r.mode = AccessMode::Read;
  queue.insert(w);
  queue.insert(r);
  queue.release(w);
  // A run of one is announced through plain on_grant — batching must not
  // change the sink-visible shape of the common uncontended case.
  EXPECT_TRUE(sink.batches.empty());
  ASSERT_EQ(sink.singles.size(), 2u);
  EXPECT_EQ(sink.singles[1], &r);
}

/// Drive one mixed scenario (write head, reader run, trailing write,
/// renewals) against a queue; returns the announcement order as tickets.
std::vector<Ticket> run_mixed_scenario(bool batch) {
  BatchRecordingSink sink;
  FifoQueue queue(&sink);
  queue.set_batch_grants(batch);
  Request w1, w2;
  w1.mode = w2.mode = AccessMode::Write;
  Request r[4];
  for (Request& req : r) req.mode = AccessMode::Read;

  queue.insert(w1);
  for (int i = 0; i < 3; ++i) queue.insert(r[i]);
  queue.insert(w2);
  queue.release(w1);                  // uncovers the r[0..2] run
  queue.release_and_renew(r[1], r[3]);  // renewal lands behind w2
  queue.release(r[0]);
  queue.release(r[2]);                // uncovers w2
  queue.release(w2);                  // uncovers r[3] (run of one)
  queue.release(r[3]);

  std::vector<Ticket> tickets;
  tickets.reserve(sink.order.size());
  for (const Request* req : sink.order) tickets.push_back(req->ticket);
  return tickets;
}

/// Sink whose first on_grant_batch throws — models a routing layer failing
/// mid-delivery. The queue's contract: the run is persisted (Granted +
/// announced flags) before the sink hears anything, so a throw must leave
/// nothing behind for a later combiner round to re-announce.
struct ThrowingBatchSink final : GrantSink {
  // sink-contract: no-queue-reentry — records the pointer and returns.
  void on_grant(Request& req) override { order.push_back(&req); }
  // sink-contract: no-queue-reentry — throws or records, never calls back.
  void on_grant_batch(std::span<Request* const> reqs) override {
    if (throws_left > 0) {
      --throws_left;
      throw std::runtime_error("sink failure mid-batch");
    }
    for (Request* r : reqs) order.push_back(r);
  }
  int throws_left = 1;
  std::vector<Request*> order;
};

TEST(QueueBatch, ThrowingBatchSinkLeavesNoStaleRun) {
  ThrowingBatchSink sink;
  FifoQueue queue(&sink);
  Request w;
  w.mode = AccessMode::Write;
  Request r[3];
  for (Request& req : r) req.mode = AccessMode::Read;
  queue.insert(w);  // granted alone through on_grant: does not throw
  for (Request& req : r) queue.insert(req);

  // The batch announcement throws AFTER the run is persisted: every
  // reader is Granted, announcement-flagged (so its release cannot spin
  // forever), and the exception reaches the releaser.
  EXPECT_THROW(queue.release(w), std::runtime_error);
  for (Request& req : r)
    EXPECT_EQ(req.state, RequestState::Granted);

  // Recovery: later combiner rounds must not re-announce the failed run —
  // by now its slots are being reclaimed and may belong to a new lap.
  // Draining the readers and pushing a fresh writer through must announce
  // exactly that writer, nothing from the thrown-away batch.
  for (Request& req : r) queue.release(req);
  Request w2;
  w2.mode = AccessMode::Write;
  queue.insert(w2);
  EXPECT_EQ(w2.state, RequestState::Granted);
  ASSERT_EQ(sink.order.size(), 2u);
  EXPECT_EQ(sink.order[0], &w);
  EXPECT_EQ(sink.order[1], &w2);
  queue.release(w2);
}

TEST(QueueBatch, BatchedGrantsMatchUnbatchedReplay) {
  // The batch path is a delivery optimization, not a policy change: the
  // flattened announcement sequence must be identical with batching on
  // and off (same tickets, same order).
  const std::vector<Ticket> batched = run_mixed_scenario(true);
  const std::vector<Ticket> unbatched = run_mixed_scenario(false);
  EXPECT_EQ(batched, unbatched);
  EXPECT_EQ(batched.size(), 6u);  // w1, r0..r2, w2, r3 — each exactly once
}

TEST(QueueBatch, BatchRunSpansRingWraparound) {
  // Park a writer just below the ring boundary, queue a reader run whose
  // tickets straddle it (slot indices wrap to the ring's start), and
  // release: the run must still arrive as ONE batch in ticket order —
  // the collection loop walks tickets, not raw slot indices.
  BatchRecordingSink sink;
  FifoQueue queue(&sink);
  const std::size_t cap = queue.capacity();
  Request w[2];
  w[0].mode = w[1].mode = AccessMode::Write;
  queue.insert(w[0]);  // ticket 0
  int cur = 0;
  for (std::size_t t = 1; t + 1 < cap; ++t) {  // renew up to ticket cap-2
    queue.release_and_renew(w[cur], w[cur ^ 1]);
    cur ^= 1;
  }
  ASSERT_EQ(w[cur].ticket, cap - 2);
  Request r[4];
  for (Request& req : r) {
    req.mode = AccessMode::Read;
    queue.insert(req);  // tickets cap-1, cap, cap+1, cap+2
  }
  EXPECT_EQ(r[3].ticket, cap + 2);
  sink.batches.clear();
  queue.release(w[cur]);
  ASSERT_EQ(sink.batches.size(), 1u);
  ASSERT_EQ(sink.batches[0].size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sink.batches[0][static_cast<std::size_t>(i)], &r[i]);
    EXPECT_EQ(r[i].state, RequestState::Granted);
  }
}

}  // namespace
}  // namespace orwl
