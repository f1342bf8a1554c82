#pragma once
// Event queue feeding a control thread. The ORWL runtime is event-based:
// when a request reaches the grant frontier of a location FIFO, the grant
// is *announced* to the owning task's control thread, which performs the
// delivery (waking the compute thread). Binding these control threads well
// is half of the paper's placement problem.
//
// The consumer parks on an atomic sequence word through the shared sync::
// waiter (same wait-strategy knob as every other parking point of the
// core) instead of a condition variable: post() bumps the sequence and
// notifies; pop() re-checks the backlog whenever the sequence moves, so a
// post between the backlog check and the park is never missed.

#include <atomic>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "orwl/fwd.h"
#include "support/thread_annotations.h"
#include "sync/mutex.h"
#include "sync/wait_strategy.h"

namespace orwl {

struct Request;

/// A grant announcement.
struct Event {
  Request* request = nullptr;
};

/// Unbounded MPSC event queue with blocking pop and shutdown.
class EventQueue {
 public:
  explicit EventQueue(sync::WaitStrategy wait = {}) : wait_(wait) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueue an event. Safe from any thread, including while a location
  /// queue lock is held.
  void post(Event ev) ORWL_EXCLUDES(mu_);

  /// Enqueue a batch of events with ONE lock acquisition, ONE sequence
  /// bump and ONE wake — the posting half of the batched shared-read
  /// grant path (a run of N readers costs one EventQueue hop, not N).
  /// Same thread-safety contract as post(). Empty spans are a no-op.
  void post_batch(std::span<const Event> evs) ORWL_EXCLUDES(mu_);

  /// Block until an event is available or stop() is called.
  /// Returns nullopt once stopped and drained.
  std::optional<Event> pop() ORWL_EXCLUDES(mu_);

  /// Batched pop: block like pop(), then drain the ENTIRE backlog in one
  /// pass, appending it to `out` (one lock acquisition per wake instead of
  /// one per event — the control threads' burst path when
  /// RuntimeOptions::inline_idle_delivery is off). Returns false once
  /// stopped and drained, leaving `out` untouched.
  bool pop_all(std::vector<Event>& out) ORWL_EXCLUDES(mu_);

  /// Wake all poppers; subsequent pops drain the backlog then return
  /// nullopt.
  void stop() ORWL_EXCLUDES(mu_);

  /// Events currently queued (diagnostics).
  [[nodiscard]] std::size_t pending() const ORWL_EXCLUDES(mu_);

  /// Lock-free backlog probe for the inline-idle-delivery fast path: true
  /// when the queue LOOKED empty just now. Advisory only — a concurrent
  /// post can make the answer stale by the time the caller acts on it;
  /// callers must be correct either way (grant delivery is, because a
  /// notify is idempotent and waiters re-check state, never counts).
  [[nodiscard]] bool idle() const {
    // order: relaxed — advisory snapshot; see the comment above.
    return backlog_.load(std::memory_order_relaxed) == 0;
  }

 private:
  mutable sync::Mutex mu_;
  std::deque<Event> events_ ORWL_GUARDED_BY(mu_);
  bool stopped_ ORWL_GUARDED_BY(mu_) = false;
  /// Bumped (release) on every post/stop; the consumer parks on it.
  std::atomic<std::uint32_t> seq_{0};
  /// Mirror of events_.size(), maintained under mu_ but readable without
  /// it (idle() above).
  std::atomic<std::uint32_t> backlog_{0};
  sync::WaitStrategy wait_;
};

}  // namespace orwl
