#pragma once
// Event queue of the kind that fed a control thread in the paper's
// event-based runtime. The Runtime no longer uses it: it delivers every
// grant in the thread that announces it and starts no control thread.
// Kept only because perfbench/'s events.hop_ns rung reads it; removed with
// ROADMAP item 1(b).
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

  /// Block until an event is available or stop() is called.
  /// Returns nullopt once stopped and drained.
  std::optional<Event> pop() ORWL_EXCLUDES(mu_);

  /// Batched pop: block like pop(), then drain the ENTIRE backlog in one
  /// pass, appending it to `out` (one lock acquisition per wake instead of
  /// one per event). Returns false once stopped and drained, leaving `out`
  /// untouched.
  bool pop_all(std::vector<Event>& out) ORWL_EXCLUDES(mu_);

  /// Wake all poppers; subsequent pops drain the backlog then return
  /// nullopt.
  void stop() ORWL_EXCLUDES(mu_);

  /// Events currently queued (diagnostics).
  [[nodiscard]] std::size_t pending() const ORWL_EXCLUDES(mu_);

 private:
  mutable sync::Mutex mu_;
  std::deque<Event> events_ ORWL_GUARDED_BY(mu_);
  bool stopped_ ORWL_GUARDED_BY(mu_) = false;
  /// Bumped (release) on every post/stop; the consumer parks on it.
  std::atomic<std::uint32_t> seq_{0};
  sync::WaitStrategy wait_;
};

}  // namespace orwl
