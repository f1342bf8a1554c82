// Unit tests for the event queue. Kept only because perfbench/ reads
// EventQueue; removed with ROADMAP item 1(b).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "orwl/events.h"
#include "orwl/queue.h"

namespace orwl {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, PostThenPop) {
  EventQueue q;
  Request r;
  q.post({&r});
  EXPECT_EQ(q.pending(), 1u);
  const auto ev = q.pop();
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->request, &r);
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, FifoOrder) {
  EventQueue q;
  Request r[3];
  for (auto& x : r) q.post({&x});
  EXPECT_EQ(q.pop()->request, &r[0]);
  EXPECT_EQ(q.pop()->request, &r[1]);
  EXPECT_EQ(q.pop()->request, &r[2]);
}

TEST(EventQueue, StopUnblocksPopper) {
  EventQueue q;
  std::atomic<bool> returned{false};
  std::thread popper([&] {
    const auto ev = q.pop();
    EXPECT_FALSE(ev.has_value());
    returned = true;
  });
  // Give the popper a moment to block, then stop.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.stop();
  popper.join();
  EXPECT_TRUE(returned.load());
}

TEST(EventQueue, DrainsBacklogAfterStop) {
  EventQueue q;
  Request r[2];
  q.post({&r[0]});
  q.post({&r[1]});
  q.stop();
  EXPECT_EQ(q.pop()->request, &r[0]);
  EXPECT_EQ(q.pop()->request, &r[1]);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(EventQueue, PostAfterStopStillDelivered) {
  // The runtime may race a final grant against shutdown; the event must
  // not be lost for the drain.
  EventQueue q;
  q.stop();
  Request r;
  q.post({&r});
  EXPECT_EQ(q.pop()->request, &r);
}

TEST(EventQueue, PopAllDrainsTheWholeBacklogInOnePass) {
  EventQueue q;
  Request r[4];
  for (auto& x : r) q.post({&x});
  std::vector<Event> batch;
  ASSERT_TRUE(q.pop_all(batch));
  ASSERT_EQ(batch.size(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(batch[static_cast<std::size_t>(i)].request, &r[i]);
  EXPECT_EQ(q.pending(), 0u);
  // Appends rather than clears: the caller owns the buffer lifecycle.
  q.post({&r[1]});
  ASSERT_TRUE(q.pop_all(batch));
  EXPECT_EQ(batch.size(), 5u);
}

TEST(EventQueue, PopAllBlocksThenReturnsFalseOnceStoppedAndDrained) {
  EventQueue q;
  Request r;
  std::atomic<int> batches{0};
  std::thread consumer([&] {
    std::vector<Event> batch;
    while (q.pop_all(batch)) {
      batches += 1;
      batch.clear();
    }
    EXPECT_TRUE(batch.empty());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.post({&r});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.stop();
  consumer.join();
  EXPECT_GE(batches.load(), 1);
}

TEST(EventQueue, ManyProducersOneBatchedConsumer) {
  EventQueue q;
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 500;
  std::vector<Request> reqs(kProducers * kPerProducer);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        q.post({&reqs[static_cast<std::size_t>(p * kPerProducer + i)]});
    });
  }
  std::atomic<int> received{0};
  std::thread consumer([&] {
    std::vector<Event> batch;
    while (received < kProducers * kPerProducer) {
      if (q.pop_all(batch)) {
        received += static_cast<int>(batch.size());
        batch.clear();
      }
    }
  });
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(received, kProducers * kPerProducer);
}

TEST(EventQueue, ManyProducersOneConsumer) {
  EventQueue q;
  constexpr int kProducers = 8;
  constexpr int kPerProducer = 500;
  std::vector<Request> reqs(kProducers * kPerProducer);
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i)
        q.post({&reqs[static_cast<std::size_t>(p * kPerProducer + i)]});
    });
  }
  int received = 0;
  std::thread consumer([&] {
    while (received < kProducers * kPerProducer) {
      if (q.pop().has_value()) ++received;
    }
  });
  for (auto& t : producers) t.join();
  consumer.join();
  EXPECT_EQ(received, kProducers * kPerProducer);
}

}  // namespace
}  // namespace orwl
