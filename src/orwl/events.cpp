#include "orwl/events.h"

#include "obs/trace.h"
#include "sync/mutex.h"
#include "sync/waiter.h"

namespace orwl {

void EventQueue::post(Event ev) {
  {
    sync::LockGuard lock(mu_);
    events_.push_back(ev);
  }
  // lint: allow-rmw(futex sequence bump; the wait side lives in sync/)
  // order: release — the bump publishes the backlog entry; the consumer's
  // acquire load in the waiter pairs with it before re-checking.
  seq_.fetch_add(1, std::memory_order_release);
  sync::notify_one(seq_);
}

std::optional<Event> EventQueue::pop() {
  for (;;) {
    // order: acquire — read the sequence BEFORE inspecting the backlog: a
    // post that lands after the (empty) inspection has bumped seq_ past
    // `s`, so the wait below returns immediately instead of missing the
    // wake.
    // order: acquire — pairs with post()'s release bump; see above.
    const std::uint32_t s = seq_.load(std::memory_order_acquire);
    {
      sync::LockGuard lock(mu_);
      if (!events_.empty()) {
        Event ev = events_.front();
        events_.pop_front();
        return ev;
      }
      if (stopped_) return std::nullopt;
    }
    (void)sync::wait_while_equal(seq_, s, wait_);
  }
}

bool EventQueue::pop_all(std::vector<Event>& out) {
  for (;;) {
    // order: acquire — same ordering protocol as pop(): read the sequence
    // before the backlog so a concurrent post cannot slip between
    // inspection and park.
    const std::uint32_t s = seq_.load(std::memory_order_acquire);
    {
      sync::LockGuard lock(mu_);
      if (!events_.empty()) {
        obs::trace(obs::EventKind::EventPop, events_.size());
        out.insert(out.end(), events_.begin(), events_.end());
        events_.clear();
        return true;
      }
      if (stopped_) return false;
    }
    (void)sync::wait_while_equal(seq_, s, wait_);
  }
}

void EventQueue::stop() {
  {
    sync::LockGuard lock(mu_);
    stopped_ = true;
  }
  // lint: allow-rmw(futex sequence bump; the wait side lives in sync/)
  // order: release — publishes stopped_ to poppers the same way post()
  // publishes a backlog entry.
  seq_.fetch_add(1, std::memory_order_release);
  sync::notify_all(seq_);
}

std::size_t EventQueue::pending() const {
  sync::LockGuard lock(mu_);
  return events_.size();
}

}  // namespace orwl
