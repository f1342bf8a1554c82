#pragma once
// FifoQueue: the per-location request FIFO at the heart of the ORWL model.
//
// Requests are served in strict insertion order: the head of the queue is
// granted; when the head is a Read, the maximal run of consecutive Reads
// behind it is granted with it (shared read access); a Write is granted
// alone (exclusive). Releasing a granted request removes it and advances
// the grant frontier.
//
// Grants are *announced* through the non-allocating GrantSink interface so
// the runtime can route them through control threads (the decentralized
// event-based design the paper describes) or deliver them directly.
//
// LOCK-FREE DESIGN (docs/correctness.md "The lock-free grant path" has the
// full ordering contract). The queue is a ticket ring, not a mutex-guarded
// deque:
//
//   * insert       = one atomic fetch_add on the ticket counter + a
//                    publish of the request into the ring slot the ticket
//                    maps to (Vyukov-style per-slot sequence numbers).
//   * release      = one release-store on the slot's `released` flag —
//                    the owner never touches other requests.
//   * advancement  = a flat-combining step (sync::Combiner): whichever
//                    thread announced work last reclaims released head
//                    slots and grants the new head run. Announcements are
//                    globally serialized and strictly ticket-monotone, so
//                    grant sequences are identical to a single-threaded
//                    replay in ticket order.
//
// Request.state is an atomic the waiting compute thread parks on directly
// (sync/waiter.h): the combiner stores Granted (release), the delivery
// path notifies, and an uncontended grant is consumed with a single
// acquire load — no lock anywhere on the grant path.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "orwl/fwd.h"
#include "sync/combiner.h"

namespace orwl {

/// State of a request in its location FIFO. 32-bit so the waiter's park
/// maps onto a futex (see sync/waiter.h).
enum class RequestState : std::uint32_t {
  Inactive,   ///< not in any queue
  Requested,  ///< queued, not yet at the grant frontier
  Granted,    ///< lock held; data may be accessed
};

/// One entry of a location FIFO. Owned by the issuing Handle; the queue
/// stores non-owning pointers. Lifetime: must outlive its queue membership
/// (the queue guarantees it never touches the request after the owner's
/// release() returns — see FifoQueue).
///
/// `state` is written by the queue's combiner (Granted, release ordering)
/// and read by the owning thread's waiter (acquire), which may park on it
/// directly. Copying is provided for single-threaded setup and test
/// convenience only — it snapshots the atomic non-atomically.
struct Request {
  AccessMode mode = AccessMode::Read;
  std::atomic<RequestState> state{RequestState::Inactive};
  Ticket ticket = 0;       ///< insertion order stamp (per location)
  TaskId owner = -1;       ///< task that issued the request
  HandleId handle = -1;    ///< handle the request belongs to
  LocationId location = -1;  ///< location whose FIFO the request is in

  Request() = default;
  Request(const Request& o)
      : mode(o.mode),
        // order: relaxed — copying is documented single-threaded setup
        // only; there is no concurrent writer to synchronize with.
        state(o.state.load(std::memory_order_relaxed)),
        ticket(o.ticket),
        owner(o.owner),
        handle(o.handle),
        location(o.location) {}
  Request& operator=(const Request& o) {
    mode = o.mode;
    // order: relaxed — single-threaded setup/test copies only (see above).
    state.store(o.state.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    ticket = o.ticket;
    owner = o.owner;
    handle = o.handle;
    location = o.location;
    return *this;
  }
};

/// Grant announcement target, invoked (from inside the combining step, so
/// announcements are serialized) for every newly granted request.
/// Implementations must be non-blocking and must not re-enter the
/// announcing queue — ORWL_ASSERT fires on re-entry, in release builds
/// too. Every on_grant override must carry the
/// `sink-contract: no-queue-reentry` comment (enforced by
/// tools/orwl_lint.py) as an explicit acknowledgement of that contract.
/// An intrusive interface (the Runtime *is* the sink) instead of a
/// std::function, so announcing a grant allocates nothing.
class GrantSink {
 public:
  virtual void on_grant(Request& req) = 0;

  /// Batched announcement: a run of concurrent READ grants (>= 2, ticket
  /// order) announced through ONE virtual call, so N readers cost one
  /// dispatch — and a routing sink can push one event / coalesce wakes
  /// instead of paying N hops. Same contract as on_grant (serialized
  /// inside the combining step, non-blocking, no queue re-entry; every
  /// request is already Granted when the call is made). The default
  /// replays the batch through on_grant one by one, so sinks that never
  /// opted in observe the exact per-grant sequence they always did.
  // sink-contract: no-queue-reentry — inherits on_grant's obligation.
  virtual void on_grant_batch(std::span<Request* const> reqs) {
    for (Request* r : reqs) on_grant(*r);
  }

 protected:
  ~GrantSink() = default;
};

/// Adapter wrapping a callable as a GrantSink (tests and benches; the
/// callable is stored inline, so announcement stays allocation-free).
template <class F>
class GrantFn final : public GrantSink {
 public:
  explicit GrantFn(F fn) : fn_(std::move(fn)) {}
  // sink-contract: no-queue-reentry — forwards to the wrapped callable,
  // which inherits the obligation not to call back into the queue.
  void on_grant(Request& req) override { fn_(req); }

 private:
  F fn_;
};

/// Where a Handle sends its lock operations. The in-process case is the
/// location's own FifoQueue; a cross-address-space location substitutes a
/// port that forwards the operations to the process hosting the queue
/// (ipc::RemotePort) — the GrantSink split covers the grant direction,
/// this interface covers the request direction. Implementations must keep
/// the FifoQueue semantics: release_and_renew inserts `next` before
/// `current`'s slot is given up.
class RequestPort {
 public:
  virtual void insert(Request& req) = 0;
  virtual void release(Request& req) = 0;
  virtual void release_and_renew(Request& current, Request& next) = 0;

 protected:
  ~RequestPort() = default;
};

class FifoQueue : public RequestPort {
 public:
  /// Ring capacity a fresh queue starts with; generous enough for every
  /// direct-queue test/bench. Runtimes size precisely via reserve_owners.
  static constexpr std::size_t kDefaultCapacity = 256;

  /// `sink` is non-owning and must outlive the queue.
  explicit FifoQueue(GrantSink* sink);

  FifoQueue(const FifoQueue&) = delete;
  FifoQueue& operator=(const FifoQueue&) = delete;

  /// Append a request. The request must be Inactive. May grant it (and
  /// announce the grant) immediately when it lands in the head run.
  void insert(Request& req) override;

  /// Release a Granted request: remove it and advance the grant frontier,
  /// announcing any newly granted requests. Throws ContractError if the
  /// request is not currently granted. After this returns the queue holds
  /// no reference to `req` — the owner may immediately reuse or destroy
  /// it.
  void release(Request& req) override;

  /// Atomically insert `next` and release `current` — the iterative ORWL
  /// step: the renewal takes its ticket *before* the current slot is given
  /// up, so the cyclic per-iteration order is preserved forever.
  void release_and_renew(Request& current, Request& next) override;

  /// Number of queued (Requested + Granted) requests. Exact only while the
  /// queue is quiescent (no insert/release in flight) — all callers are.
  [[nodiscard]] std::size_t size() const;

  /// Snapshot of (ticket, mode, state) for tests/diagnostics. Same
  /// quiescence contract as size().
  struct Entry {
    Ticket ticket;
    AccessMode mode;
    RequestState state;
  };
  [[nodiscard]] std::vector<Entry> snapshot() const;

  /// Declare `n` additional request owners (handles or remote proxies)
  /// that will operate on this queue; grows the ring so the ORWL
  /// in-flight bound (2 requests per owner) can never fill it. A full
  /// ring would deadlock release_and_renew, whose renewal must take a
  /// slot BEFORE the current grant's slot is reclaimed. Single-threaded
  /// setup only (Runtime::add_handle, ipc attach) — the ring is rebuilt.
  void reserve_owners(std::size_t n);

  /// Grow the ring to at least `want` slots (rounded up to a power of
  /// two). Quiescent single-threaded use only: no concurrent queue op may
  /// be in flight while the ring is rebuilt.
  void ensure_capacity(std::size_t want);

  /// Current ring capacity (insert backpressure threshold).
  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Batched shared-read announcement (on by default): a head run of >= 2
  /// concurrent readers is announced through one on_grant_batch call
  /// instead of per-request on_grant calls. Quiescent setup only (the
  /// runtime applies RuntimeOptions::batch_grants; benches A/B it).
  void set_batch_grants(bool on) { batch_grants_ = on; }

 private:
  /// One ring slot. A ticket t lives in slots_[t & mask_]; the slot's
  /// `seq` walks t (free for round t) → t+1 (occupied by round t) →
  /// t+capacity (free for the next lap), publishing the other fields
  /// Vyukov-style. `mode` is plain: written by the inserter before the
  /// seq release-store, read by others only after the seq acquire-load.
  struct alignas(64) Slot {
    std::atomic<Ticket> seq{0};
    std::atomic<Request*> req{nullptr};
    /// Owner finished with the grant; slot is reclaimable.
    std::atomic<bool> released{false};
    /// Combiner finished announcing (sink returned); until then the
    /// owner's release spins, so the combiner's Request& stays valid.
    std::atomic<bool> announced{false};
    AccessMode mode = AccessMode::Read;
  };

  void enqueue(Request& req);      ///< ticket + slot publish (no combine)
  void mark_released(Request& req);  ///< contract checks + released flag
  void combine();                  ///< announce work, maybe run advance()
  void advance();                  ///< combiner body: reclaim + grant
  void grant_one(Slot& s, Ticket t);  ///< store Granted + announce once
  /// Store Granted on a collected read run (>= 2, ticket order, last
  /// ticket `t_last`) and announce it through ONE on_grant_batch call.
  /// Uses the batch_* scratch members (combiner-private).
  void grant_run(Ticket t_last);
  /// Protocol assert: the grant sink must not call back in.
  void check_not_reentered() const;

  std::unique_ptr<Slot[]> slots_;
  std::size_t mask_ = 0;  ///< capacity - 1 (capacity is a power of two)
  std::size_t owners_ = 0;  ///< registered request owners (reserve_owners)

  /// Next ticket to hand out. The only atomic inserters contend on.
  std::atomic<Ticket> tail_{0};
  /// First not-yet-reclaimed ticket. Combiner-private (only mutated while
  /// holding the Combiner role); atomic so quiescent observers
  /// (size/snapshot) are race-free.
  std::atomic<Ticket> head_{0};
  /// Frontier of announced grants: every ticket < granted_ has had its
  /// single announcement. Combiner-private like head_.
  std::atomic<Ticket> granted_{0};

  sync::Combiner combiner_;
  GrantSink* sink_;

  bool batch_grants_ = true;
  /// Read-run collection scratch, combiner-private (only touched while
  /// holding the combiner role). Reserved to ring capacity by
  /// ensure_capacity, so the steady-state grant path never allocates.
  /// Emptied BEFORE every sink call: a throwing sink unwinds into the
  /// combiner's exception recovery, and the next advance() must never
  /// find a stale collected run to re-announce.
  std::vector<Slot*> batch_slots_;
  std::vector<Ticket> batch_tickets_;
  /// The run currently being announced (requests + their slots), owned by
  /// the in-flight on_grant_batch call and its announced-flag guard —
  /// separate from the collection scratch so that scratch can be cleared
  /// before the sink runs. Same reservation contract as above.
  std::vector<Request*> batch_reqs_;
  std::vector<Slot*> announce_slots_;
};

}  // namespace orwl
