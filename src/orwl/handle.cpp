#include "orwl/handle.h"

#include <chrono>

#include "obs/trace.h"
#include "support/assert.h"
#include "sync/waiter.h"

namespace orwl {

Handle::Handle(HandleId id, TaskId task, LocationBuffer& location,
               AccessMode mode, sync::WaitStrategy wait)
    : id_(id), task_(task), location_(location), mode_(mode), wait_(wait) {
  for (Request& r : slots_) {
    r.mode = mode;
    r.owner = task;
    r.handle = id;
    r.location = location.id();
  }
}

void Handle::request() {
  ORWL_CHECK_MSG(!acquired_, "request() while holding the lock; use "
                             "release_and_renew() instead");
  // order: relaxed — only the owning thread moves a slot out of
  // Inactive, and that owner is the caller.
  ORWL_CHECK_MSG(current().state.load(std::memory_order_relaxed) ==
                     RequestState::Inactive,
                 "handle " << id_ << " already has a request in flight");
  location_.port().insert(current());
}

namespace {

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::span<std::byte> Handle::acquire() {
  ORWL_CHECK_MSG(!acquired_, "acquire() while already holding the lock");
  obs::trace(obs::EventKind::AcquireBegin,
             static_cast<std::uint64_t>(id_));
  // Acquire latency needs two clock reads; gate them behind the
  // detailed-metrics flag so the default acquire stays clock-free.
  const bool timed = acquire_ns_ != nullptr && obs::detailed_metrics_enabled();
  const std::uint64_t t0 = timed ? steady_ns() : 0;
  Request& cur = current();
  // order: acquire — pairs with the queue's release store of Granted; it
  // publishes the previous holder's buffer writes on the fast path.
  RequestState s = cur.state.load(std::memory_order_acquire);
  ORWL_CHECK_MSG(s != RequestState::Inactive,
                 "acquire() without a prior request()");
  // Fast path: the grant was already made (and published with release
  // ordering by the queue) — consume it with this one acquire load.
  // Otherwise park on the state word until delivery notifies. The only
  // transition out of Requested is to Granted, so one wait suffices.
  if (s != RequestState::Granted) {
    sync::WaitLength len;
    s = sync::wait_while_equal(cur.state, RequestState::Requested, wait_,
                               wait_rounds_ != nullptr ? &len : nullptr);
    ORWL_CHECK_MSG(s == RequestState::Granted,
                   "request state corrupted while waiting (state "
                       << static_cast<int>(s) << ")");
    if (wait_rounds_ != nullptr) wait_rounds_->record(len.rounds);
  } else if (wait_rounds_ != nullptr) {
    // Uncontended acquires land in bucket 0, so the histogram shows the
    // fast-path share of all acquires.
    wait_rounds_->record(0);
  }
  if (timed) acquire_ns_->record(steady_ns() - t0);
  acquired_ = true;
  obs::trace(obs::EventKind::AcquireEnd, static_cast<std::uint64_t>(id_));
  return location_.data();
}

std::span<const std::byte> Handle::acquire_const() {
  const std::span<std::byte> bytes = acquire();
  return {bytes.data(), bytes.size()};
}

bool Handle::test() const {
  // order: acquire — a true result may be followed by buffer access
  // without a further acquire (same pairing as the acquire() fast path).
  return current().state.load(std::memory_order_acquire) ==
         RequestState::Granted;
}

void Handle::release() {
  ORWL_CHECK_MSG(acquired_, "release() without acquire()");
  acquired_ = false;
  obs::trace(obs::EventKind::Release, static_cast<std::uint64_t>(id_));
  location_.port().release(current());
}

void Handle::release_and_renew() {
  ORWL_CHECK_MSG(acquired_, "release_and_renew() without acquire()");
  acquired_ = false;
  obs::trace(obs::EventKind::Release, static_cast<std::uint64_t>(id_));
  // The spare slot becomes the next-iteration request; it may be granted
  // (and delivered) before release_and_renew returns.
  Request& cur = current();
  Request& next = spare();
  active_ ^= 1;
  location_.port().release_and_renew(cur, next);
}

}  // namespace orwl
