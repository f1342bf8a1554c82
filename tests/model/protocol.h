#pragma once
// Protocol model: the REAL FifoQueue + Request state machine + GrantSink,
// driven by virtual threads (model/vthread.h) so every interleaving of
// protocol steps can be explored deterministically — seeded corpora for
// larger configurations, bounded-exhaustive DFS for small ones.
//
// A World owns L locations (each a real FifoQueue behind a recording
// GrantSink) and T task scripts. Each task holds a ModelHandle per
// location it accesses — the same double-slot renewal discipline as
// orwl::Handle, but parking through ctx.wait_until instead of the futex
// waiter (a cooperative scheduler cannot spin on a real futex). The task
// scripts run the iterative ORWL discipline: prime in canonical order,
// then acquire -> (hold) -> release_and_renew for a fixed round count.
//
// Invariants asserted (the paper-level guarantees):
//   * FIFO grant delivery  — per location, grant announcements happen in
//     strictly increasing ticket order (insertion order is never bypassed)
//   * exclusivity          — per location, the granted set is one Write or
//     only Reads, never a mix, never two Writes
//   * single announcement  — each (location, ticket) is announced exactly
//     once
//   * no lost wakeup       — a blocked task whose grant has arrived is
//     always runnable (checked by the scheduler before declaring deadlock)
//   * termination          — every explored schedule completes; a Deadlock
//     result fails the test with the offending schedule trace

#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "model/vthread.h"
#include "orwl/queue.h"

namespace orwl::model {

/// Per-location recording sink. Checks FIFO order + single announcement at
/// announcement time; exclusivity is checked against the queue snapshot
/// after every protocol step.
// sink-contract: no-queue-reentry — records the ticket and returns (the
// optional forward hook publishes to a model ring deque; it must not call
// back into the queue either).
class RecordingSink final : public GrantSink {
 public:
  void on_grant(Request& req) override {
    grants.push_back(req.ticket);
    if (forward) forward(req);
  }
  std::vector<Ticket> grants;  ///< announcement order
  /// Remote world: mirrors ipc::RemoteGrantSink — grants whose request is
  /// remote-owned are additionally published onto the model grant ring.
  std::function<void(const Request&)> forward;
};

/// A location under test: real queue + recording sink.
struct ModelLocation {
  ModelLocation() : queue(&sink) {}
  RecordingSink sink;
  FifoQueue queue;
};

/// Mirrors orwl::Handle's two-slot renewal discipline over the real queue,
/// but waits cooperatively. The two-phase acquire makes the waiter's
/// "load, then park" window an explicit schedule point, so the exhaustive
/// mode covers the release-lands-between-load-and-park interleaving that a
/// lost-wakeup bug would turn into a deadlock.
class ModelHandle {
 public:
  ModelHandle(ModelLocation& loc, AccessMode mode) : loc_(loc) {
    for (Request& r : slots_) r.mode = mode;
  }

  void request() { loc_.queue.insert(cur()); }

  /// Two-phase blocking acquire: observe the state (one protocol step),
  /// then block until granted (the park). A grant landing between the two
  /// phases must be picked up by the re-check in wait_until.
  void acquire(ThreadCtx& ctx) {
    // order: acquire — same pairing as Handle::acquire's fast path.
    const RequestState seen = cur().state.load(std::memory_order_acquire);
    if (seen != RequestState::Granted) {
      ctx.yield();  // the load/park window: releases may land here
      Request& r = cur();
      ctx.wait_until([&r] {
        // order: acquire — grant consumption, pairs with the queue's
        // release store.
        return r.state.load(std::memory_order_acquire) ==
               RequestState::Granted;
      });
    }
  }

  void release() { loc_.queue.release(cur()); }

  /// The iterative renewal, modelled as the TWO steps the lock-free queue
  /// makes independently visible: the renewal takes its ticket and
  /// publishes its ring slot (insert), and only then is the current grant
  /// given up (release). The explicit schedule point between them drives
  /// the ticket window — the DFS lands every other protocol step inside
  /// it, proving the cyclic order cannot be usurped while a renewal is
  /// published but its predecessor still holds the grant. (The runtime's
  /// single-call release_and_renew is the same two steps back to back;
  /// queue_test covers that form.)
  void release_and_renew(ThreadCtx& ctx) {
    Request& c = cur();
    Request& n = spare();
    active_ ^= 1;
    loc_.queue.insert(n);   // ticket window opens: renewal is queued...
    ctx.yield();            // ...any protocol step may land here...
    loc_.queue.release(c);  // ...before the current grant is given up
  }

  [[nodiscard]] Ticket current_ticket() const { return cur().ticket; }

 private:
  Request& cur() { return slots_[static_cast<std::size_t>(active_)]; }
  [[nodiscard]] const Request& cur() const {
    return slots_[static_cast<std::size_t>(active_)];
  }
  Request& spare() { return slots_[static_cast<std::size_t>(active_ ^ 1)]; }

  ModelLocation& loc_;
  Request slots_[2];
  int active_ = 0;
};

/// One task's accesses: (location index, mode) pairs, acquired in declared
/// order each round — the canonical ORWL iterative task shape.
struct TaskSpec {
  std::string name;
  struct Access {
    int location;
    AccessMode mode;
  };
  std::vector<Access> accesses;
  int rounds = 2;
  /// run_remote_world only: this task lives in the "peer process" — its
  /// handle operations cross the model ops ring and its grants come back
  /// over the model grant ring (run_world ignores the flag).
  bool remote = false;
};

/// Outcome of one explored schedule.
struct WorldResult {
  bool completed = false;
  std::string failure;       ///< empty when all invariants held
  std::vector<int> trace;    ///< schedule steps (vthread ids), for repros
  std::uint64_t steps = 0;
};

/// Build the world, run one schedule under `chooser`, check invariants.
/// (format_trace in model/vthread.h renders a failed schedule.)
WorldResult run_world(const std::vector<TaskSpec>& tasks, int num_locations,
                      Chooser& chooser);

/// The cross-address-space seam (src/ipc/transport.h) as a model: tasks
/// with `remote = true` route request / release / release_and_renew
/// through an explicit ops-ring deque drained by an owner-pump vthread
/// into kRemoteOwner proxy requests on the real queues, and their grants
/// come back through a grant-ring deque drained by a peer-pump vthread —
/// so the ring's publish/consume window is an explicit schedule point and
/// the chooser can interleave pump steps against every protocol step.
/// Priming mirrors the transport's wait_peer_attached barrier: every
/// initial request (local and remote) is drained into the FIFOs before
/// any task or pump vthread takes a step. Invariants are run_world's.
WorldResult run_remote_world(const std::vector<TaskSpec>& tasks,
                             int num_locations, Chooser& chooser);

}  // namespace orwl::model
