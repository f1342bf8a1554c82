#include "orwl/queue.h"

#include "support/assert.h"
#include "sync/waiter.h"

namespace orwl {

namespace {

#if ORWL_PROTOCOL_ASSERTS_ENABLED
/// Queue this thread is currently announcing grants for; the documented
/// "must not re-enter the queue" sink contract becomes a protocol assert
/// (live in RelWithDebInfo/Release builds too) instead of a silent
/// lock-free livelock.
thread_local const FifoQueue* tl_announcing = nullptr;

/// RAII marker for the announcement window (single grant or batch) so a
/// throwing sink — or the re-entrancy assert itself — cannot leave the
/// thread-local marker stale.
struct AnnounceScope {
  const FifoQueue* prev;
  explicit AnnounceScope(const FifoQueue* q) : prev(tl_announcing) {
    tl_announcing = q;
  }
  ~AnnounceScope() { tl_announcing = prev; }
};
#endif

}  // namespace

void FifoQueue::check_not_reentered() const {
#if ORWL_PROTOCOL_ASSERTS_ENABLED
  ORWL_ASSERT_MSG(tl_announcing != this,
                  "grant sink re-entered its own FifoQueue — sinks must "
                  "only announce, never call back into the queue");
#endif
}

FifoQueue::FifoQueue(GrantSink* sink) : sink_(sink) {
  ORWL_CHECK_MSG(sink_ != nullptr, "FifoQueue needs a grant sink");
  ensure_capacity(kDefaultCapacity);
}

void FifoQueue::ensure_capacity(std::size_t want) {
  std::size_t cap = slots_ ? mask_ + 1 : 0;
  if (want <= cap) return;
  std::size_t fresh_cap = cap == 0 ? 1 : cap;
  while (fresh_cap < want) fresh_cap <<= 1;
  auto fresh = std::make_unique<Slot[]>(fresh_cap);
  // Quiescent rebuild: re-seat every live ticket into the slot it maps to
  // under the new mask, and seed every free slot with the ticket of its
  // next lap (Vyukov seq init, generalized to a running ring).
  // order: relaxed — quiescence is the caller's contract (single-threaded
  // setup); later threads synchronize through thread creation / attach.
  const Ticket head = head_.load(std::memory_order_relaxed);
  const Ticket tail = tail_.load(std::memory_order_relaxed);
  for (Ticket t = head; t != head + fresh_cap; ++t) {
    Slot& d = fresh[t & (fresh_cap - 1)];
    if (t < tail) {
      const Slot& s = slots_[t & mask_];
      d.mode = s.mode;
      // order: relaxed — same quiescent-rebuild contract as above.
      d.req.store(s.req.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
      // order: relaxed — quiescent rebuild (see above).
      d.released.store(s.released.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
      // order: relaxed — quiescent rebuild (see above).
      d.announced.store(s.announced.load(std::memory_order_relaxed),
                        std::memory_order_relaxed);
      // order: relaxed — quiescent rebuild (see above).
      d.seq.store(t + 1, std::memory_order_relaxed);
    } else {
      // order: relaxed — free slot, first used by the inserter of ticket t.
      d.seq.store(t, std::memory_order_relaxed);
    }
  }
  slots_ = std::move(fresh);
  mask_ = fresh_cap - 1;
  // Read-run scratch sized to the ring: a grant run can never exceed
  // capacity, so the combiner's collection loop never allocates.
  batch_slots_.reserve(fresh_cap);
  batch_tickets_.reserve(fresh_cap);
  batch_reqs_.reserve(fresh_cap);
  announce_slots_.reserve(fresh_cap);
}

void FifoQueue::reserve_owners(std::size_t n) {
  owners_ += n;
  // The ORWL discipline keeps at most 2 requests in flight per owner
  // (a Handle's two slots; a remote proxy mirrors one handle). +2 slack
  // covers a renewal that holds both of an owner's slots mid-swap.
  ensure_capacity(2 * owners_ + 2);
}

void FifoQueue::insert(Request& req) {
  check_not_reentered();
  enqueue(req);
  combine();
}

void FifoQueue::release(Request& req) {
  check_not_reentered();
  mark_released(req);
  combine();
}

void FifoQueue::release_and_renew(Request& current, Request& next) {
  check_not_reentered();
  ORWL_CHECK_MSG(&current != &next,
                 "release_and_renew needs two distinct requests");
  // Validated BEFORE the renewal takes a ticket, so a contract violation
  // leaves `next` untouched.
  // order: acquire — same contract as the check in mark_released.
  const RequestState cur =
      current.state.load(std::memory_order_acquire);
  ORWL_CHECK_MSG(cur == RequestState::Granted,
                 "cannot renew a request that is not granted");
  // Order matters: the renewal must take its ticket before the release
  // lets any later request advance past it — the iterative ORWL step.
  enqueue(next);
  mark_released(current);
  combine();
}

void FifoQueue::enqueue(Request& req) {
  // order: relaxed — an Inactive request has no concurrent writer (it is
  // in no queue); the owner issuing this call is the only toucher.
  const RequestState st = req.state.load(std::memory_order_relaxed);
  ORWL_CHECK_MSG(st == RequestState::Inactive,
                 "request already queued (state " << static_cast<int>(st)
                                                  << ")");
  // order: relaxed — the ticket needs only uniqueness + monotonicity; all
  // publication rides the slot's seq protocol below.
  const Ticket t = tail_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = slots_[t & mask_];
  // Ring backpressure: wait for the slot's previous lap to be reclaimed.
  // reserve_owners sizing makes this spin unreachable in runtime use (the
  // ORWL in-flight bound is 2 per owner, and the ring always exceeds
  // 2*owners); it only throttles raw-queue stress that overcommits.
  // order: acquire — pairs with the combiner's reclaiming release store,
  // so the slot's previous-lap fields are fully dead before we write.
  sync::spin_until(
      [&] { return s.seq.load(std::memory_order_acquire) == t; });
  req.ticket = t;
  // order: relaxed — only the owning thread consumes Requested, and it is
  // the thread issuing this call.
  req.state.store(RequestState::Requested, std::memory_order_relaxed);
  s.mode = req.mode;
  // order: relaxed — slot fields are republished as a unit by the seq
  // release store below; nobody reads them before its acquire pairing.
  s.released.store(false, std::memory_order_relaxed);
  s.announced.store(false, std::memory_order_relaxed);
  // order: relaxed — republished by the seq release store (see above).
  s.req.store(&req, std::memory_order_relaxed);
  // order: release — publishes the slot (req/mode/flags) for round t;
  // pairs with the seq acquire loads in advance()/size()/snapshot().
  s.seq.store(t + 1, std::memory_order_release);
}

void FifoQueue::mark_released(Request& req) {
  // order: acquire — pairs with the combiner's Granted release store for
  // direct queue users; Handle owners already synchronized in acquire().
  const RequestState st = req.state.load(std::memory_order_acquire);
  ORWL_CHECK_MSG(st == RequestState::Granted,
                 "releasing a request that is not granted (state "
                     << static_cast<int>(st) << ")");
  Slot& s = slots_[req.ticket & mask_];
  // order: relaxed — diagnostic identity check only; a Granted request
  // cannot have had its slot reclaimed (reclaim requires released).
  ORWL_ASSERT_MSG(s.req.load(std::memory_order_relaxed) == &req,
                  "released request not in queue — protocol state corrupt");
  // The combiner may still be inside the sink call announcing this very
  // grant (a spinning owner can observe Granted before the sink returns).
  // Wait it out so no queue-side reference to `req` survives this call.
  // Bounded: sinks are non-blocking by contract; in the delivery path the
  // wake itself came through the sink, so announced is already set.
  // order: acquire — pairs with the combiner's announced release store,
  // ordering the combiner's last use of `req` before the owner reuses it.
  sync::spin_until(
      [&] { return s.announced.load(std::memory_order_acquire); });
  // order: relaxed — only the owner (this thread) reuses the request.
  req.state.store(RequestState::Inactive, std::memory_order_relaxed);
  // order: release — hands the slot back to the combiner's reclaim
  // acquire load; also the edge that publishes this owner's location
  // buffer writes into the release→reclaim→grant happens-before chain.
  s.released.store(true, std::memory_order_release);
}

void FifoQueue::combine() {
  combiner_.run([this] { advance(); });
}

void FifoQueue::advance() {
  const std::size_t cap = mask_ + 1;
  // order: relaxed — head_/granted_ are combiner-private: only mutated
  // while holding the Combiner role, whose acq_rel handoff orders them
  // across combiner threads. Atomic only for quiescent observers.
  Ticket head = head_.load(std::memory_order_relaxed);

  // Phase 1 — reclaim: pop released slots off the head, freeing each for
  // the ring's next lap.
  for (;; ++head) {
    Slot& s = slots_[head & mask_];
    // order: acquire — pairs with the inserter's publishing release store;
    // guards every read of the slot's fields below.
    if (s.seq.load(std::memory_order_acquire) != head + 1) break;
    // order: acquire — pairs with the releaser's release store; the
    // owner's buffer writes become visible to the combiner here, which
    // extends the happens-before chain to the next grantee.
    if (!s.released.load(std::memory_order_acquire)) break;
    // order: relaxed — republished by the seq release store below.
    s.req.store(nullptr, std::memory_order_relaxed);
    // order: release — frees the slot for ticket head+cap; pairs with
    // that future inserter's seq acquire spin.
    s.seq.store(head + cap, std::memory_order_release);
  }
  // order: relaxed — combiner-private (see above).
  head_.store(head, std::memory_order_relaxed);

  // Phase 2 — grant frontier: head Write alone, or the maximal head run
  // of Reads (skipping already-released ones — an out-of-order reader
  // release must not shrink the run). Announcements happen inside the
  // combiner, so they are globally serialized and strictly
  // ticket-monotone: identical to a single-threaded replay.
  // order: relaxed — combiner-private (see above).
  Ticket granted = granted_.load(std::memory_order_relaxed);
  for (Ticket i = head;; ++i) {
    Slot& s = slots_[i & mask_];
    // order: acquire — publication guard, as in phase 1. A not-yet-
    // published slot ends the frontier (the inserter will re-announce).
    if (s.seq.load(std::memory_order_acquire) != i + 1) break;
    // order: acquire — a concurrent release may land mid-scan; skip the
    // slot (it was a granted read) and keep extending the run.
    if (s.released.load(std::memory_order_acquire)) continue;
    if (s.mode == AccessMode::Write) {
      // A write is granted only alone at the head; if it is not at the
      // head yet, the pending release in front will re-trigger us. A write
      // can only sit at the head, so no collected reads precede it here.
      if (i != head) break;
      if (i >= granted) {
        grant_one(s, i);
        granted = i + 1;
      }
      break;  // exclusive: nothing behind a write can be granted
    }
    if (i >= granted) {
      if (batch_grants_) {
        // Collect the read run; announced as ONE batch after the scan.
        batch_slots_.push_back(&s);
        batch_tickets_.push_back(i);
      } else {
        grant_one(s, i);
      }
      granted = i + 1;
    }
  }
  if (!batch_slots_.empty()) {
    if (batch_slots_.size() == 1) {
      // Run of one: announced per-grant. The collection scratch is
      // emptied BEFORE the sink call (grant_run does the same) so a
      // throwing sink cannot leave a stale run for the next advance() —
      // which would re-announce tickets whose slots phase-1 reclaim may
      // already have recycled.
      Slot& s = *batch_slots_.front();
      const Ticket t = batch_tickets_.front();
      batch_slots_.clear();
      batch_tickets_.clear();
      grant_one(s, t);
    } else {
      grant_run(batch_tickets_.back());
    }
  }
}

void FifoQueue::grant_run(Ticket t_last) {
  // order: relaxed — combiner-private frontier; the WHOLE run is persisted
  // BEFORE the sink call so a throwing sink cannot cause a second
  // announcement of any of its tickets (at-most-once contract).
  granted_.store(t_last + 1, std::memory_order_relaxed);
  batch_reqs_.clear();
  announce_slots_.clear();
  for (Slot* s : batch_slots_) {
    announce_slots_.push_back(s);
    // order: relaxed — the slot's seq acquire load (advance) already
    // guards this field.
    Request& r = *s->req.load(std::memory_order_relaxed);
    batch_reqs_.push_back(&r);
    // order: release — publishes the previous holder's buffer writes to
    // the grantee, exactly as in grant_one.
    r.state.store(RequestState::Granted, std::memory_order_release);
  }
  // The collection scratch is emptied BEFORE the sink call: a throwing
  // sink unwinds into the combiner's exception recovery, and the next
  // advance() must not find (and re-announce) a stale run — its slots may
  // since have been reclaimed, or reused by a later lap's requests. The
  // in-flight run lives on in announce_slots_/batch_reqs_, read only by
  // this announcement and its guard.
  batch_slots_.clear();
  batch_tickets_.clear();

#if ORWL_PROTOCOL_ASSERTS_ENABLED
  AnnounceScope announce_scope(this);
#endif
  // RAII: every slot's announced flag must be set even when the sink
  // throws, or the owners' releases would spin forever. Owners of EARLY
  // requests in the run may observe Granted (spinning waiters) and
  // release while the batch announcement is still in flight; their
  // mark_released spins on this flag, so the queue-side Request
  // references stay valid for the whole sink call — the same protocol as
  // a single grant, with a longer window.
  struct BatchAnnouncedGuard {
    std::vector<Slot*>& slots;
    ~BatchAnnouncedGuard() {
      for (Slot* s : slots)
        // order: release — pairs with the releaser's announced acquire
        // spin; orders the sink's last use of the Request before reuse.
        s->announced.store(true, std::memory_order_release);
    }
  } announced_guard{announce_slots_};
  sink_->on_grant_batch({batch_reqs_.data(), batch_reqs_.size()});
}

void FifoQueue::grant_one(Slot& s, Ticket t) {
  // order: relaxed — combiner-private frontier; persisted BEFORE the sink
  // call so a throwing sink cannot cause a second announcement of this
  // ticket (at-most-once announcement contract).
  granted_.store(t + 1, std::memory_order_relaxed);
  // order: relaxed — the slot's seq acquire load (advance) already
  // guards this field.
  Request& r = *s.req.load(std::memory_order_relaxed);
  // order: release — publishes the previous holder's buffer writes to the
  // grantee: releaser's released store (release) → combiner's acquire →
  // this store → grantee's acquire load in Handle::acquire.
  r.state.store(RequestState::Granted, std::memory_order_release);

#if ORWL_PROTOCOL_ASSERTS_ENABLED
  AnnounceScope announce_scope(this);
#endif
  // RAII: the announced flag must be set even when the sink throws, or
  // the owner's release would spin forever on a wedged announcement.
  struct AnnouncedGuard {
    Slot& slot;
    ~AnnouncedGuard() {
      // order: release — pairs with the releaser's announced acquire
      // spin; orders the sink's (and our) last use of the Request before
      // the owner reuses it.
      slot.announced.store(true, std::memory_order_release);
    }
  } announced_guard{s};
  sink_->on_grant(r);
}

std::size_t FifoQueue::size() const {
  std::size_t n = 0;
  // order: acquire — quiescent observer (header contract); acquire keeps
  // the scan race-free if callers are merely *nearly* quiescent.
  for (Ticket i = head_.load(std::memory_order_acquire);; ++i) {
    const Slot& s = slots_[i & mask_];
    // order: acquire — publication guard, as in advance().
    if (s.seq.load(std::memory_order_acquire) != i + 1) break;
    // order: acquire — released entries are no longer queued.
    if (!s.released.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

std::vector<FifoQueue::Entry> FifoQueue::snapshot() const {
  std::vector<Entry> out;
  // order: acquire — same quiescent-observer contract as size().
  for (Ticket i = head_.load(std::memory_order_acquire);; ++i) {
    const Slot& s = slots_[i & mask_];
    // order: acquire — publication guard, as in advance().
    if (s.seq.load(std::memory_order_acquire) != i + 1) break;
    // order: acquire — skip released entries; their Request may already
    // be reused by its owner.
    if (s.released.load(std::memory_order_acquire)) continue;
    // order: relaxed — guarded by the seq acquire above.
    const Request* req = s.req.load(std::memory_order_relaxed);
    // order: acquire — pairs with the combiner's Granted release store.
    out.push_back({i, s.mode, req->state.load(std::memory_order_acquire)});
  }
  return out;
}

}  // namespace orwl
