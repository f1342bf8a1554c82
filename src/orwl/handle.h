#pragma once
// Handle: a task's capability on a location (the orwl_handle primitive).
//
// Life cycle per iteration:
//   request()            — enqueue into the location FIFO (done once by the
//                          runtime in canonical order when auto-primed)
//   acquire()            — block until the grant is delivered; returns the
//                          guarded buffer
//   release()            — give the lock up, or
//   release_and_renew()  — give it up AND re-enqueue in the same FIFO
//                          position relative to the other iterative handles
//                          (the ORWL iterative discipline).
//
// A handle keeps two Request slots and alternates between them so a renewal
// can be in flight while the current grant is still held.
//
// There is no per-handle mutex: acquire() parks directly on the active
// Request's atomic state through the sync:: waiter, and grant delivery is
// a notify on that atomic. An uncontended acquire (grant already made) is
// one acquire load.

#include <span>

#include "obs/metrics.h"
#include "orwl/location.h"
#include "orwl/queue.h"
#include "sync/wait_strategy.h"
#include "sync/waiter.h"

namespace orwl {

class Handle {
 public:
  Handle(HandleId id, TaskId task, LocationBuffer& location, AccessMode mode,
         sync::WaitStrategy wait = {});

  Handle(const Handle&) = delete;
  Handle& operator=(const Handle&) = delete;

  [[nodiscard]] HandleId id() const { return id_; }
  [[nodiscard]] TaskId task() const { return task_; }
  [[nodiscard]] LocationId location() const { return location_.id(); }
  [[nodiscard]] AccessMode mode() const { return mode_; }

  /// Enqueue the next request. Called by the runtime for priming; user code
  /// calls it only for non-iterative (manual) protocols.
  void request();

  /// Block until granted. Returns the location buffer (read-only views are
  /// fine for Write handles; Read handles must not write — enforced in
  /// debug builds by checksumming in tests, not at runtime).
  std::span<std::byte> acquire();

  /// Const acquire path: same blocking semantics as acquire(), but hands
  /// back a read-only view so Read handles can go straight to
  /// as_span<const T> without a manual std::span<const std::byte>
  /// conversion.
  std::span<const std::byte> acquire_const();

  /// Non-blocking poll: true when the grant has been made (it may still be
  /// in flight through a control thread's event queue — the waiter does
  /// not need the notify once the state reads Granted).
  [[nodiscard]] bool test() const;

  /// Release without renewing (last iteration / manual protocols).
  void release();

  /// Release and atomically re-enqueue for the next iteration.
  void release_and_renew();

  /// True while the task holds the lock (between acquire and release).
  [[nodiscard]] bool acquired() const { return acquired_; }

  /// Grant delivery — called by the runtime (directly or from a control
  /// thread): wakes the waiter parked on the request's state. The Granted
  /// store has already been published by the queue; delivery only
  /// notifies. Not for user code.
  static void deliver_grant(Request& req) { sync::notify_all(req.state); }

  /// Wire the per-handle observability sinks (done by Runtime::add_handle;
  /// either may be null). `wait_rounds` gets every acquire's spin-round
  /// count (one relaxed fetch_add — always on); `acquire_ns` gets
  /// wall-clock acquire latency, recorded only while
  /// obs::detailed_metrics_enabled() since it costs two clock reads.
  void set_metrics(obs::Histogram* wait_rounds, obs::Histogram* acquire_ns) {
    wait_rounds_ = wait_rounds;
    acquire_ns_ = acquire_ns;
  }

 private:
  Request& current() { return slots_[active_]; }
  [[nodiscard]] const Request& current() const { return slots_[active_]; }
  Request& spare() { return slots_[active_ ^ 1]; }

  HandleId id_;
  TaskId task_;
  LocationBuffer& location_;
  AccessMode mode_;
  sync::WaitStrategy wait_;

  Request slots_[2];
  int active_ = 0;
  bool acquired_ = false;  // owner-thread view; no lock needed

  obs::Histogram* wait_rounds_ = nullptr;  // observability sinks, optional
  obs::Histogram* acquire_ns_ = nullptr;
};

/// Typed view helper: reinterpret a byte span as a span of T.
template <class T>
std::span<T> as_span(std::span<std::byte> bytes) {
  return {reinterpret_cast<T*>(bytes.data()), bytes.size() / sizeof(T)};
}
template <class T>
std::span<const T> as_span(std::span<const std::byte> bytes) {
  return {reinterpret_cast<const T*>(bytes.data()),
          bytes.size() / sizeof(T)};
}

}  // namespace orwl
