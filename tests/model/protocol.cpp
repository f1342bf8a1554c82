#include "model/protocol.h"

#include <deque>
#include <stdexcept>

namespace orwl::model {

namespace {

/// Thrown by invariant checks; surfaces through Scheduler::error().
class InvariantViolation : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

struct World {
  std::vector<std::unique_ptr<ModelLocation>> locations;

  explicit World(int n) {
    for (int i = 0; i < n; ++i)
      locations.push_back(std::make_unique<ModelLocation>());
  }

  /// Assert the paper-level safety invariants over every location. Runs
  /// after every protocol step, while the stepping thread still holds the
  /// token — the world is quiescent.
  void check() const {
    for (std::size_t li = 0; li < locations.size(); ++li) {
      const ModelLocation& loc = *locations[li];
      // FIFO grant delivery + single announcement: announcement tickets
      // strictly increase (the frontier only ever moves forward, and no
      // ticket is announced twice).
      const auto& g = loc.sink.grants;
      for (std::size_t i = 1; i < g.size(); ++i) {
        if (g[i - 1] >= g[i]) {
          std::ostringstream os;
          os << "FIFO violation at location " << li << ": grant ticket "
             << g[i] << " announced after ticket " << g[i - 1];
          throw InvariantViolation(os.str());
        }
      }
      // Exclusivity: the granted set is one Write or only Reads.
      int writes = 0;
      int reads = 0;
      for (const auto& e : loc.queue.snapshot()) {
        if (e.state != RequestState::Granted) continue;
        (e.mode == AccessMode::Write ? writes : reads) += 1;
      }
      if (writes > 1 || (writes == 1 && reads > 0)) {
        std::ostringstream os;
        os << "exclusivity violation at location " << li << ": " << writes
           << " writers and " << reads << " readers granted simultaneously";
        throw InvariantViolation(os.str());
      }
    }
  }
};

/// Model wire format — the three peer->owner operations and the
/// owner->peer grant announcement, as plain deque entries (the rings'
/// SPSC order is a property of the deque; the publish/consume WINDOW is
/// what the pump vthreads' schedule points expose).
enum class WireKind { Request, Release, ReleaseRenew };

struct WireOp {
  WireKind kind;
  int slot;
  AccessMode mode;
  int location;
};

struct WireGrant {
  int slot;
  Ticket ticket;
};

struct ModelChannel {
  std::deque<WireOp> ops;      ///< peer -> owner
  std::deque<WireGrant> grants;  ///< owner -> peer
};

/// Peer-side half of a remote handle: same double-slot renewal as
/// ModelHandle, but every operation is a ring publish instead of a queue
/// call — the model twin of ipc::PeerEndpoint::RemotePort.
class RemoteModelHandle {
 public:
  RemoteModelHandle(ModelChannel& ch, int slot, int location, AccessMode mode)
      : ch_(ch), slot_(slot), location_(location) {
    for (Request& r : slots_) r.mode = mode;
  }

  void request() {
    // order: relaxed — the issuing vthread consumes its own store, as in
    // RemotePort::insert.
    cur().state.store(RequestState::Requested, std::memory_order_relaxed);
    ch_.ops.push_back({WireKind::Request, slot_, cur().mode, location_});
  }

  /// Two-phase acquire, exactly like ModelHandle — the load/park window
  /// now also races against both pump vthreads.
  void acquire(ThreadCtx& ctx) {
    // order: acquire — pairs with deliver()'s release store.
    const RequestState seen = cur().state.load(std::memory_order_acquire);
    if (seen != RequestState::Granted) {
      ctx.yield();  // the load/park window
      Request& r = cur();
      ctx.wait_until([&r] {
        // order: acquire — grant consumption.
        return r.state.load(std::memory_order_acquire) ==
               RequestState::Granted;
      });
    }
  }

  void release() {
    // order: relaxed — owning-vthread slot reuse.
    cur().state.store(RequestState::Inactive, std::memory_order_relaxed);
    ch_.ops.push_back({WireKind::Release, slot_, cur().mode, location_});
  }

  void release_and_renew() {
    // order: relaxed — both stores are consumed by this vthread / the
    // serialized pump; the deque order is the ring order.
    spare().state.store(RequestState::Requested, std::memory_order_relaxed);
    cur().state.store(RequestState::Inactive, std::memory_order_relaxed);
    active_ ^= 1;
    ch_.ops.push_back({WireKind::ReleaseRenew, slot_, cur().mode, location_});
  }

  /// Peer-pump delivery: the grant-ring message reaches the in-flight
  /// peer-side request (ipc::PeerEndpoint::pump's job).
  void deliver(Ticket ticket) {
    Request& r = cur();
    if (r.state.load(std::memory_order_relaxed) != RequestState::Requested)
      throw InvariantViolation(
          "grant delivered to a slot with no request in flight");
    r.ticket = ticket;
    // order: release — pairs with acquire()'s load, as in the real pump.
    r.state.store(RequestState::Granted, std::memory_order_release);
  }

 private:
  Request& cur() { return slots_[static_cast<std::size_t>(active_)]; }
  Request& spare() { return slots_[static_cast<std::size_t>(active_ ^ 1)]; }

  ModelChannel& ch_;
  int slot_;
  int location_;
  Request slots_[2];
  int active_ = 0;
};

/// Owner-side proxy pair per peer slot (ipc::OwnerEndpoint::ProxySlot).
struct ModelProxySlot {
  Request reqs[2];
  int active = 0;
  bool queued = false;
};

/// Owner-pump step: materialize one drained op as a proxy-request
/// operation on the real queue (ipc::OwnerEndpoint::handle_msg).
void apply_op(World& world, std::vector<ModelProxySlot>& proxies,
              const WireOp& op) {
  ModelProxySlot& ps = proxies[static_cast<std::size_t>(op.slot)];
  FifoQueue& queue =
      world.locations[static_cast<std::size_t>(op.location)]->queue;
  switch (op.kind) {
    case WireKind::Request: {
      if (ps.queued)
        throw InvariantViolation("remote slot already has a request queued");
      Request& r = ps.reqs[ps.active];
      r.mode = op.mode;
      r.owner = kRemoteOwner;
      r.handle = static_cast<HandleId>(op.slot);
      r.location = static_cast<LocationId>(op.location);
      ps.queued = true;
      queue.insert(r);
      return;
    }
    case WireKind::Release:
      if (!ps.queued)
        throw InvariantViolation("Release for an idle remote slot");
      ps.queued = false;
      queue.release(ps.reqs[ps.active]);
      return;
    case WireKind::ReleaseRenew: {
      if (!ps.queued)
        throw InvariantViolation("ReleaseRenew for an idle remote slot");
      Request& cur = ps.reqs[ps.active];
      Request& next = ps.reqs[ps.active ^ 1];
      next.mode = op.mode;
      next.owner = kRemoteOwner;
      next.handle = cur.handle;
      next.location = cur.location;
      ps.active ^= 1;
      queue.release_and_renew(cur, next);
      return;
    }
  }
}

}  // namespace

WorldResult run_world(const std::vector<TaskSpec>& tasks, int num_locations,
                      Chooser& chooser) {
  World world(num_locations);

  // Per-task handles, in the task's declared access order.
  std::vector<std::vector<std::unique_ptr<ModelHandle>>> handles(
      tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t)
    for (const auto& a : tasks[t].accesses)
      handles[t].push_back(std::make_unique<ModelHandle>(
          *world.locations[static_cast<std::size_t>(a.location)], a.mode));

  // Canonical priming in registration order — single-threaded, exactly as
  // Runtime::run() does before spawning. This global deterministic order
  // is the liveness precondition of the iterative discipline.
  for (std::size_t t = 0; t < tasks.size(); ++t)
    for (auto& h : handles[t]) h->request();
  world.check();

  Scheduler sched;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const TaskSpec& spec = tasks[t];
    auto& hs = handles[t];
    sched.spawn(spec.name, [&world, &hs, spec](ThreadCtx& ctx) {
      for (int round = 0; round < spec.rounds; ++round) {
        for (auto& h : hs) {
          h->acquire(ctx);
          world.check();
        }
        // Hold the section across a schedule point so reader overlap and
        // writer exclusion are actually observable states.
        ctx.yield();
        world.check();
        const bool last = round + 1 == spec.rounds;
        for (auto& h : hs) {
          if (last)
            h->release();
          else
            h->release_and_renew(ctx);
          world.check();
          ctx.yield();
        }
      }
    });
  }

  const Scheduler::Result res = sched.run(chooser);
  WorldResult out;
  out.trace = sched.trace();
  out.steps = sched.trace().size();
  if (!sched.error().empty()) {
    out.failure = sched.error();
    return out;
  }
  if (res == Scheduler::Result::Deadlock) {
    std::ostringstream os;
    os << "deadlock: blocked threads [";
    for (std::size_t i = 0; i < sched.deadlocked().size(); ++i)
      os << (i ? ", " : "") << sched.deadlocked()[i];
    os << "]";
    out.failure = os.str();
    return out;
  }

  // Liveness accounting: every inserted request was eventually granted —
  // per location, rounds inserts per accessing handle, each announced
  // exactly once (single announcement is implied by the strict FIFO check
  // plus this count) — and the FIFOs drained.
  std::vector<std::size_t> expected(
      static_cast<std::size_t>(num_locations), 0);
  for (const TaskSpec& spec : tasks)
    for (const auto& a : spec.accesses)
      expected[static_cast<std::size_t>(a.location)] +=
          static_cast<std::size_t>(spec.rounds);
  for (int li = 0; li < num_locations; ++li) {
    const ModelLocation& loc = *world.locations[static_cast<std::size_t>(li)];
    if (loc.queue.size() != 0) {
      out.failure = "location FIFO not drained after completion";
      return out;
    }
    if (loc.sink.grants.size() != expected[static_cast<std::size_t>(li)]) {
      std::ostringstream os;
      os << "location " << li << " announced " << loc.sink.grants.size()
         << " grants, expected " << expected[static_cast<std::size_t>(li)];
      out.failure = os.str();
      return out;
    }
  }
  out.completed = true;
  return out;
}

WorldResult run_remote_world(const std::vector<TaskSpec>& tasks,
                             int num_locations, Chooser& chooser) {
  World world(num_locations);
  ModelChannel channel;

  // Remote grants leave through the sink onto the model grant ring — the
  // RemoteGrantSink seam. Local grants take the in-process path (the
  // queue's own state store), exactly as in the shm transport.
  for (auto& loc : world.locations)
    loc->sink.forward = [&channel](const Request& req) {
      if (req.owner == kRemoteOwner)
        channel.grants.push_back({static_cast<int>(req.handle), req.ticket});
    };

  // Per-task handles; remote tasks get ring-routed ones, with peer slot
  // ids assigned in registration order (the wire's HandleId space).
  std::vector<std::vector<std::unique_ptr<ModelHandle>>> local_handles(
      tasks.size());
  std::vector<std::vector<std::unique_ptr<RemoteModelHandle>>> remote_handles(
      tasks.size());
  std::vector<RemoteModelHandle*> slot_map;  // peer slot id -> handle
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (const auto& a : tasks[t].accesses) {
      if (tasks[t].remote) {
        remote_handles[t].push_back(std::make_unique<RemoteModelHandle>(
            channel, static_cast<int>(slot_map.size()), a.location, a.mode));
        slot_map.push_back(remote_handles[t].back().get());
      } else {
        local_handles[t].push_back(std::make_unique<ModelHandle>(
            *world.locations[static_cast<std::size_t>(a.location)], a.mode));
      }
    }
  }
  std::vector<ModelProxySlot> proxies(slot_map.size());

  // Canonical priming with the transport's startup barrier: local primes
  // go straight into the FIFOs, remote primes are published and then the
  // ops ring is drained to empty before anything is scheduled — the
  // wait_peer_attached() contract.
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (auto& h : local_handles[t]) h->request();
    for (auto& h : remote_handles[t]) h->request();
  }
  while (!channel.ops.empty()) {
    const WireOp op = channel.ops.front();
    channel.ops.pop_front();
    apply_op(world, proxies, op);
  }
  world.check();

  // Post-prime traffic the pumps must move: every remote access does
  // rounds-1 renews and one final release (ops), and is granted `rounds`
  // times (grant-ring messages).
  std::size_t pump_ops = 0;
  std::size_t pump_grants = 0;
  for (const TaskSpec& spec : tasks) {
    if (!spec.remote) continue;
    pump_ops += spec.accesses.size() * static_cast<std::size_t>(spec.rounds);
    pump_grants +=
        spec.accesses.size() * static_cast<std::size_t>(spec.rounds);
  }

  Scheduler sched;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const TaskSpec& spec = tasks[t];
    if (spec.remote) {
      auto& hs = remote_handles[t];
      sched.spawn(spec.name, [&world, &hs, spec](ThreadCtx& ctx) {
        for (int round = 0; round < spec.rounds; ++round) {
          for (auto& h : hs) {
            h->acquire(ctx);
            world.check();
          }
          ctx.yield();  // hold the section across a schedule point
          world.check();
          const bool last = round + 1 == spec.rounds;
          for (auto& h : hs) {
            if (last)
              h->release();
            else
              h->release_and_renew();  // one wire message, atomic at the owner
            world.check();
            ctx.yield();
          }
        }
      });
    } else {
      auto& hs = local_handles[t];
      sched.spawn(spec.name, [&world, &hs, spec](ThreadCtx& ctx) {
        for (int round = 0; round < spec.rounds; ++round) {
          for (auto& h : hs) {
            h->acquire(ctx);
            world.check();
          }
          ctx.yield();
          world.check();
          const bool last = round + 1 == spec.rounds;
          for (auto& h : hs) {
            if (last)
              h->release();
            else
              h->release_and_renew(ctx);
            world.check();
            ctx.yield();
          }
        }
      });
    }
  }

  // The two pump vthreads. Their wait_until on "ring non-empty" makes the
  // publish/consume window a first-class schedule point: the chooser can
  // run a pump immediately, or let arbitrary protocol steps land between
  // a publish and its drain.
  sched.spawn("owner-pump",
              [&world, &channel, &proxies, pump_ops](ThreadCtx& ctx) {
                for (std::size_t i = 0; i < pump_ops; ++i) {
                  ctx.wait_until([&channel] { return !channel.ops.empty(); });
                  const WireOp op = channel.ops.front();
                  channel.ops.pop_front();
                  ctx.yield();  // drained but not yet applied
                  apply_op(world, proxies, op);
                  world.check();
                }
              });
  sched.spawn("peer-pump",
              [&world, &channel, &slot_map, pump_grants](ThreadCtx& ctx) {
                for (std::size_t i = 0; i < pump_grants; ++i) {
                  ctx.wait_until(
                      [&channel] { return !channel.grants.empty(); });
                  const WireGrant g = channel.grants.front();
                  channel.grants.pop_front();
                  ctx.yield();  // consumed but not yet delivered
                  slot_map[static_cast<std::size_t>(g.slot)]->deliver(
                      g.ticket);
                  world.check();
                }
              });

  const Scheduler::Result res = sched.run(chooser);
  WorldResult out;
  out.trace = sched.trace();
  out.steps = sched.trace().size();
  if (!sched.error().empty()) {
    out.failure = sched.error();
    return out;
  }
  if (res == Scheduler::Result::Deadlock) {
    std::ostringstream os;
    os << "deadlock: blocked threads [";
    for (std::size_t i = 0; i < sched.deadlocked().size(); ++i)
      os << (i ? ", " : "") << sched.deadlocked()[i];
    os << "]";
    out.failure = os.str();
    return out;
  }

  // Same liveness accounting as run_world, plus: both rings drained.
  if (!channel.ops.empty() || !channel.grants.empty()) {
    out.failure = "model rings not drained after completion";
    return out;
  }
  std::vector<std::size_t> expected(
      static_cast<std::size_t>(num_locations), 0);
  for (const TaskSpec& spec : tasks)
    for (const auto& a : spec.accesses)
      expected[static_cast<std::size_t>(a.location)] +=
          static_cast<std::size_t>(spec.rounds);
  for (int li = 0; li < num_locations; ++li) {
    const ModelLocation& loc = *world.locations[static_cast<std::size_t>(li)];
    if (loc.queue.size() != 0) {
      out.failure = "location FIFO not drained after completion";
      return out;
    }
    if (loc.sink.grants.size() != expected[static_cast<std::size_t>(li)]) {
      std::ostringstream os;
      os << "location " << li << " announced " << loc.sink.grants.size()
         << " grants, expected " << expected[static_cast<std::size_t>(li)];
      out.failure = os.str();
      return out;
    }
  }
  out.completed = true;
  return out;
}

}  // namespace orwl::model
