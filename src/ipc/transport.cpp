#include "ipc/transport.h"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "obs/trace.h"
#include "orwl/handle.h"
#include "support/assert.h"
#include "support/log.h"
#include "support/thread.h"

namespace orwl::ipc {

namespace {

/// Default fail-stop reaction: a parked handle whose grant lives in a
/// dead process can never be woken safely, so the survivor reports and
/// leaves with a distinctive exit code (asserted by tools/check_ipc.py).
void default_failure(const std::string& why) {
  ORWL_LOG(Error) << "ipc peer failure (fail-stop): " << why;
  std::_Exit(kPeerFailureExitCode);
}

std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

AccessMode mode_of(std::uint64_t wire) {
  return wire == 0 ? AccessMode::Read : AccessMode::Write;
}

std::uint64_t wire_of(AccessMode m) {
  return m == AccessMode::Read ? 0 : 1;
}

}  // namespace

// --- RemoteGrantSink --------------------------------------------------------

RemoteGrantSink::RemoteGrantSink(SpscRing& ring, obs::Counter& published)
    : ring_(ring), published_(published) {}

void RemoteGrantSink::on_grant(Request& req) {
  // Announcing queue's lock is held; mu_ is a leaf below it (nothing under
  // mu_ takes any other lock), so the order queue-lock -> mu_ is safe.
  WireMsg msg;
  msg.arg = req.ticket;
  msg.kind = static_cast<std::uint32_t>(MsgKind::Grant);
  msg.slot = static_cast<std::uint32_t>(req.handle);  // peer slot id
  msg.loc = static_cast<std::uint32_t>(req.location);
  sync::LockGuard lock(mu_);
  if (ring_.push_wait(msg, push_timeout_ns_) == sync::SharedWait::TimedOut) {
    // A full grant ring for this long means the peer stopped draining —
    // outstanding grants are bounded by the peer's handle count, which
    // the Hello capacity check kept within one ring.
    (on_failure_ ? on_failure_ : default_failure)(
        "grant ring full for " + std::to_string(push_timeout_ns_) +
        " ns — peer stopped draining");
    return;
  }
  published_.add(1);
  obs::trace(obs::EventKind::RingPublish, msg.kind);
}

// --- OwnerEndpoint ----------------------------------------------------------

OwnerEndpoint::OwnerEndpoint(Channel& ch, Runtime& rt, EndpointOptions opts)
    : ch_(ch),
      rt_(rt),
      opts_(std::move(opts)),
      sink_(ch.grants(), rt.metrics().counter("ipc.grants_published")),
      drained_(rt.metrics().counter("ipc.ops_drained")) {
  ORWL_CHECK_MSG(ch_.role() == Channel::Role::Owner,
                 "OwnerEndpoint needs the channel's owner side");
  sink_.set_push_timeout(opts_.handshake_timeout_ns);
  if (opts_.on_peer_failure)
    sink_.set_failure_handler(opts_.on_peer_failure);
  loc_map_.assign(ch_.num_locations(), -1);
}

OwnerEndpoint::~OwnerEndpoint() { stop(); }

void OwnerEndpoint::bind_location(std::uint32_t chan_index, LocationId loc) {
  ORWL_CHECK_MSG(!started_, "bind_location() must precede start()");
  ORWL_CHECK_MSG(chan_index < loc_map_.size(),
                 "channel has no location " << chan_index);
  loc_map_[chan_index] = loc;
  // The runtime location's bytes must be the channel block itself, or the
  // two processes would not be looking at the same data.
  ORWL_CHECK_MSG(rt_.location_data(loc).data() ==
                     ch_.location_bytes(chan_index).data(),
                 "location " << loc << " is not backed by channel block "
                             << chan_index);
}

void OwnerEndpoint::start() {
  ORWL_CHECK_MSG(!started_, "OwnerEndpoint::start() may only run once");
  for (std::size_t i = 0; i < loc_map_.size(); ++i)
    ORWL_CHECK_MSG(loc_map_[i] >= 0,
                   "channel location " << i << " was never bound");
  started_ = true;
  // Every peer proxy slot is one more potential request owner on each
  // mapped location ring. Grow the rings NOW — still single-threaded, no
  // pump thread, owner-side primes queued but quiescent — because
  // reserve_owners rebuilds the ring and must not race queue traffic.
  // Hello (which carries the actual slot count) arrives on the pump
  // thread, possibly mid-run, so we size for the checked upper bound:
  // Hello rejects any count above the grant ring's capacity.
  // A proxy may read, so the rings keep the margin for several readers.
  for (const LocationId loc : loc_map_)
    rt_.location_queue(loc).reserve_owners(ch_.grants().capacity(),
                                           AccessMode::Read);
  rt_.set_remote_sink(&sink_);
  ch_.announce_self();
  pump_thread_ = std::thread([this] { pump(); });
  // OwnerReady releases the peer's handshake wait — every owner-side
  // prime that should precede the peer's must already be queued.
  ch_.set_state(ChannelState::OwnerReady);
}

void OwnerEndpoint::stop() {
  if (!started_) return;
  // order: release — the pump's next tick load (acquire) sees the flag.
  stop_.store(true, std::memory_order_release);
  if (pump_thread_.joinable()) pump_thread_.join();
}

bool OwnerEndpoint::wait_peer_attached() {
  const std::int64_t deadline = now_ns() + opts_.handshake_timeout_ns;
  // PeerAttached is published AFTER the peer's last prime hit the ops
  // ring (FIFO), so state >= PeerAttached plus `requests_seen_ == slots`
  // means every initial request is already in its FifoQueue.
  while (now_ns() < deadline) {
    if (failed() || ch_.state() == ChannelState::Poisoned) return false;
    if (ch_.state() >= ChannelState::PeerAttached) {
      // order: acquire — pairs with the pump's release increments; the
      // queued proxy requests are visible once the counts line up.
      const std::uint32_t slots =
          hello_slots_.load(std::memory_order_acquire);
      if (slots != 0 &&
          requests_seen_.load(std::memory_order_acquire) >= slots)
        return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

bool OwnerEndpoint::wait_peer_done() {
  const auto res = ch_.wait_state(ChannelState::PeerDone,
                                  opts_.handshake_timeout_ns, opts_.wait);
  return res == sync::SharedWait::Changed &&
         ch_.state() == ChannelState::PeerDone && !failed();
}

void OwnerEndpoint::fail(const std::string& why) {
  // order: release — pairs with failed()'s acquire load.
  failed_.store(true, std::memory_order_release);
  ch_.poison();
  (opts_.on_peer_failure ? opts_.on_peer_failure : default_failure)(why);
}

void OwnerEndpoint::pump() {
  set_current_thread_name("ipc:owner");
  // order: acquire — pairs with stop()'s release store.
  while (!stop_.load(std::memory_order_acquire)) {
    WireMsg msg;
    if (ch_.ops().pop_wait(msg, opts_.tick_ns, opts_.wait) ==
        sync::SharedWait::TimedOut) {
      // Idle tick: probe the counterpart. A peer that attached and then
      // vanished without Bye is a failure — with queued proxies its death
      // mid-section would wedge every waiter, so fail loudly either way.
      if (peer_done()) return;  // clean Bye already drained
      if (!ch_.peer_alive()) {
        fail("peer process (pid " + std::to_string(ch_.peer_pid()) +
             ") died without Bye; " + std::to_string(outstanding_) +
             " proxied request(s) outstanding");
        return;
      }
      continue;
    }
    obs::trace(obs::EventKind::RingDrain, 1);
    drained_.add(1);
    handle_msg(msg);
    if (peer_done()) return;
  }
}

void OwnerEndpoint::handle_msg(const WireMsg& msg) {
  const auto kind = static_cast<MsgKind>(msg.kind);
  switch (kind) {
    case MsgKind::Hello: {
      ORWL_CHECK_MSG(proxies_.empty(), "duplicate Hello from peer");
      const auto slots = static_cast<std::uint32_t>(msg.arg);
      // One grant can be in flight per slot; keeping slots <= capacity is
      // what makes the grant ring's push_wait a liveness bound, not a
      // deadlock (see RemoteGrantSink::on_grant).
      ORWL_CHECK_MSG(slots > 0 && slots <= ch_.grants().capacity(),
                     "peer announced " << slots
                                       << " handle slots; ring capacity is "
                                       << ch_.grants().capacity());
      // Sized exactly once, while nothing is queued: the FIFOs hold raw
      // Request pointers, so this vector must never reallocate again.
      proxies_.resize(slots);
      // order: release — pairs with wait_peer_attached()'s acquire.
      hello_slots_.store(slots, std::memory_order_release);
      return;
    }
    case MsgKind::Request: {
      ORWL_CHECK_MSG(msg.slot < proxies_.size(),
                     "peer slot " << msg.slot << " out of range");
      ORWL_CHECK_MSG(msg.loc < loc_map_.size(),
                     "peer referenced unknown channel location " << msg.loc);
      ProxySlot& ps = proxies_[msg.slot];
      ORWL_CHECK_MSG(!ps.queued,
                     "peer slot " << msg.slot << " already has a request");
      const LocationId loc = loc_map_[msg.loc];
      Request& r = ps.reqs[ps.active];
      r.mode = mode_of(msg.arg);
      r.owner = kRemoteOwner;
      r.handle = static_cast<HandleId>(msg.slot);
      r.location = loc;
      ps.queued = true;
      ++outstanding_;
      rt_.location_queue(loc).insert(r);
      // lint: allow-rmw(one-off counter for the priming barrier)
      // order: release — the insert above must be visible to whoever sees
      // the count (wait_peer_attached's priming barrier).
      requests_seen_.fetch_add(1, std::memory_order_release);
      return;
    }
    case MsgKind::Release: {
      ORWL_CHECK_MSG(msg.slot < proxies_.size(),
                     "peer slot " << msg.slot << " out of range");
      ProxySlot& ps = proxies_[msg.slot];
      ORWL_CHECK_MSG(ps.queued, "Release for idle slot " << msg.slot);
      Request& r = ps.reqs[ps.active];
      ps.queued = false;
      --outstanding_;
      rt_.location_queue(r.location).release(r);
      return;
    }
    case MsgKind::ReleaseRenew: {
      ORWL_CHECK_MSG(msg.slot < proxies_.size(),
                     "peer slot " << msg.slot << " out of range");
      ProxySlot& ps = proxies_[msg.slot];
      ORWL_CHECK_MSG(ps.queued, "ReleaseRenew for idle slot " << msg.slot);
      Request& cur = ps.reqs[ps.active];
      Request& next = ps.reqs[ps.active ^ 1];
      next.mode = mode_of(msg.arg);
      next.owner = kRemoteOwner;
      next.handle = cur.handle;
      next.location = cur.location;
      ps.active ^= 1;
      rt_.location_queue(cur.location).release_and_renew(cur, next);
      return;
    }
    case MsgKind::Bye: {
      ORWL_CHECK_MSG(outstanding_ == 0,
                     "peer said Bye with " << outstanding_
                                           << " request(s) still queued");
      // order: release — pairs with peer_done()'s acquire load.
      peer_done_.store(true, std::memory_order_release);
      return;
    }
    case MsgKind::Grant:
      break;  // owner never receives grants
  }
  fail("protocol violation: unexpected message kind " +
       std::to_string(msg.kind) + " on the ops ring");
}

// --- PeerEndpoint -----------------------------------------------------------

PeerEndpoint::PeerEndpoint(Channel& ch, Runtime& rt, EndpointOptions opts)
    : ch_(ch),
      rt_(rt),
      opts_(std::move(opts)),
      sent_(rt.metrics().counter("ipc.ops_sent")),
      drained_(rt.metrics().counter("ipc.grants_drained")) {
  ORWL_CHECK_MSG(ch_.role() == Channel::Role::Peer,
                 "PeerEndpoint needs the channel's peer side");
}

PeerEndpoint::~PeerEndpoint() { stop(); }

LocationId PeerEndpoint::add_location(std::uint32_t chan_index,
                                      std::string name) {
  ORWL_CHECK_MSG(!started_, "add_location() must precede start()");
  if (name.empty()) name = ch_.location_name(chan_index);
  const LocationId loc =
      rt_.add_shared_location(ch_.location_bytes(chan_index),
                              std::move(name));
  ports_.push_back(std::make_unique<RemotePort>(*this, chan_index));
  rt_.set_location_port(loc, ports_.back().get());
  return loc;
}

void PeerEndpoint::start() {
  ORWL_CHECK_MSG(!started_, "PeerEndpoint::start() may only run once");
  ORWL_CHECK_MSG(rt_.num_handles() > 0,
                 "peer has no handles — nothing to transport");
  // pending_ is indexed by HandleId (the slot id on the wire); all
  // handles must exist before the table is sized.
  pending_ = std::vector<std::atomic<Request*>>(
      static_cast<std::size_t>(rt_.num_handles()));
  started_ = true;
  ch_.announce_self();
  // The owner primes its handles before publishing OwnerReady; waiting
  // here is what serializes the two processes' primes (canonical order).
  const auto res = ch_.wait_state(ChannelState::OwnerReady,
                                  opts_.handshake_timeout_ns, opts_.wait);
  ORWL_CHECK_MSG(res == sync::SharedWait::Changed &&
                     ch_.state() != ChannelState::Poisoned,
                 "owner never became ready (state "
                     << static_cast<int>(ch_.state()) << ")");
  WireMsg hello;
  hello.kind = static_cast<std::uint32_t>(MsgKind::Hello);
  hello.arg = static_cast<std::uint64_t>(rt_.num_handles());
  send(hello);
  pump_thread_ = std::thread([this] { pump(); });
}

void PeerEndpoint::announce_primed() {
  ORWL_CHECK_MSG(started_, "announce_primed() before start()");
  // The primes went through send() before this call, so they sit ahead of
  // the state flip in ring order — the owner's barrier counts on that.
  ch_.set_state(ChannelState::PeerAttached);
}

void PeerEndpoint::stop() {
  if (!started_) return;
  started_ = false;
  // order: release — the pump's next load (acquire) sees the flag. Set
  // BEFORE Bye/PeerDone: the moment the owner sees PeerDone it may exit,
  // and a pump tick that still probed liveness would mistake that clean
  // exit for a crash.
  stop_.store(true, std::memory_order_release);
  if (!failed()) {
    WireMsg bye;
    bye.kind = static_cast<std::uint32_t>(MsgKind::Bye);
    send(bye);
    ch_.set_state(ChannelState::PeerDone);
  }
  if (pump_thread_.joinable()) pump_thread_.join();
}

void PeerEndpoint::send(const WireMsg& msg) {
  sync::LockGuard lock(send_mu_);
  if (ch_.ops().push_wait(msg, opts_.handshake_timeout_ns) ==
      sync::SharedWait::TimedOut) {
    fail("ops ring full — owner stopped draining");
    return;
  }
  sent_.add(1);
  obs::trace(obs::EventKind::RingPublish, msg.kind);
}

void PeerEndpoint::fail(const std::string& why) {
  // order: release — pairs with failed()'s acquire load.
  failed_.store(true, std::memory_order_release);
  ch_.poison();
  (opts_.on_peer_failure ? opts_.on_peer_failure : default_failure)(why);
}

void PeerEndpoint::pump() {
  set_current_thread_name("ipc:peer");
  // order: acquire — pairs with stop()'s release store.
  while (!stop_.load(std::memory_order_acquire)) {
    WireMsg msg;
    if (ch_.grants().pop_wait(msg, opts_.tick_ns, opts_.wait) ==
        sync::SharedWait::TimedOut) {
      // order: acquire — stop() may have flagged during the wait; a
      // stopping peer must not probe (the owner may have exited cleanly).
      if (stop_.load(std::memory_order_acquire)) return;
      // Idle tick: a dead owner can never grant again; any parked local
      // handle would wait forever — fail-stop (see header comment).
      if (!ch_.peer_alive()) {
        fail("owner process (pid " + std::to_string(ch_.peer_pid()) +
             ") died — grants can no longer arrive");
        return;
      }
      continue;
    }
    obs::trace(obs::EventKind::RingDrain, 1);
    drained_.add(1);
    const auto kind = static_cast<MsgKind>(msg.kind);
    if (kind != MsgKind::Grant) {
      fail("protocol violation: message kind " + std::to_string(msg.kind) +
           " on the grant ring");
      return;
    }
    ORWL_CHECK_MSG(msg.slot < pending_.size(),
                   "grant for unknown slot " << msg.slot);
    // order: acquire — pairs with the issuing thread's release store in
    // RemotePort; the Request's fields are fully visible here.
    Request* req = pending_[msg.slot].load(std::memory_order_acquire);
    ORWL_CHECK_MSG(req != nullptr,
                   "grant for slot " << msg.slot
                                     << " with no request in flight");
    req->ticket = msg.arg;
    // order: release — publishes the previous holder's location-buffer
    // writes (carried here by the ring's release/acquire pair) to the
    // handle's acquire load; pairs with Handle::acquire / test.
    req->state.store(RequestState::Granted, std::memory_order_release);
    Handle::deliver_grant(*req);
  }
}

// --- PeerEndpoint::RemotePort -----------------------------------------------

void PeerEndpoint::RemotePort::insert(Request& req) {
  ORWL_CHECK_MSG(ep_.started_, "remote location used before start()");
  // order: relaxed — the issuing thread itself consumes Requested (the
  // same contract as FifoQueue::insert_locked).
  req.state.store(RequestState::Requested, std::memory_order_relaxed);
  // order: release — pairs with the pump's acquire load when the grant
  // comes back; publishes the request's setup.
  ep_.pending_[static_cast<std::size_t>(req.handle)].store(
      &req, std::memory_order_release);
  WireMsg msg;
  msg.kind = static_cast<std::uint32_t>(MsgKind::Request);
  msg.arg = wire_of(req.mode);
  msg.slot = static_cast<std::uint32_t>(req.handle);
  msg.loc = chan_index_;
  ep_.send(msg);
}

void PeerEndpoint::RemotePort::release(Request& req) {
  // order: relaxed — only the owning thread reuses the slot, and it is
  // executing this store (same contract as FifoQueue::release_locked).
  req.state.store(RequestState::Inactive, std::memory_order_relaxed);
  // order: relaxed — no grant can be in flight for a slot whose request
  // is held Granted by this very thread; the next insert re-publishes.
  ep_.pending_[static_cast<std::size_t>(req.handle)].store(
      nullptr, std::memory_order_relaxed);
  WireMsg msg;
  msg.kind = static_cast<std::uint32_t>(MsgKind::Release);
  msg.slot = static_cast<std::uint32_t>(req.handle);
  msg.loc = chan_index_;
  ep_.send(msg);
}

void PeerEndpoint::RemotePort::release_and_renew(Request& current,
                                                 Request& next) {
  ORWL_CHECK_MSG(&current != &next,
                 "release_and_renew needs two distinct requests");
  // order: relaxed — issuing thread consumes its own Requested store.
  next.state.store(RequestState::Requested, std::memory_order_relaxed);
  // order: relaxed — see release(): the slot is quiescent while Granted
  // is held here; it is the ring (send below), not this store, that
  // orders the owner's grant against this pointer.
  ep_.pending_[static_cast<std::size_t>(next.handle)].store(
      &next, std::memory_order_relaxed);
  // order: relaxed — owning-thread slot reuse, as in release().
  current.state.store(RequestState::Inactive, std::memory_order_relaxed);
  WireMsg msg;
  msg.kind = static_cast<std::uint32_t>(MsgKind::ReleaseRenew);
  msg.arg = wire_of(next.mode);
  msg.slot = static_cast<std::uint32_t>(next.handle);
  msg.loc = chan_index_;
  ep_.send(msg);
}

}  // namespace orwl::ipc
