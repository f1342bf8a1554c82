#include "orwl/runtime.h"

#include <algorithm>
#include <exception>
#include <mutex>

#include "mem/numa.h"
#include "obs/trace.h"
#include "support/assert.h"
#include "topo/topology.h"
#include "support/log.h"
#include "support/thread.h"
#include "sync/waiter.h"
#include "topo/binding.h"

namespace orwl {

Handle& TaskContext::handle(HandleId h) { return runtime_.handle(h); }

Runtime::Runtime(RuntimeOptions opts)
    : opts_(opts), arena_({.policy = opts.memory}), stats_(0, metrics_) {
  if (opts_.control == RuntimeOptions::ControlMode::SharedPool) {
    ORWL_CHECK_MSG(opts_.shared_control_threads >= 1,
                   "shared control pool needs at least one thread");
    for (int i = 0; i < opts_.shared_control_threads; ++i)
      shared_queues_.push_back(std::make_unique<EventQueue>(opts_.wait));
    shared_bindings_.resize(
        static_cast<std::size_t>(opts_.shared_control_threads));
  }
}

Runtime::~Runtime() = default;

LocationId Runtime::add_location(std::size_t bytes, std::string name) {
  ORWL_CHECK_MSG(!ran_, "cannot add locations after run()");
  const LocationId id = static_cast<LocationId>(locations_.size());
  if (name.empty()) name = "loc" + std::to_string(id);
  // The cast to the private base is accessible here (member scope).
  locations_.push_back(std::make_unique<LocationBuffer>(
      id, arena_.allocate(bytes, mem::ZeroFill::Deferred), std::move(name),
      static_cast<GrantSink*>(this)));
  locations_.back()->queue().set_batch_grants(opts_.batch_grants);
  return id;
}

LocationId Runtime::add_shared_location(std::span<std::byte> bytes,
                                        std::string name) {
  ORWL_CHECK_MSG(!ran_, "cannot add locations after run()");
  ORWL_CHECK_MSG(opts_.transport == RuntimeOptions::Transport::Shm,
                 "shared locations need Transport::Shm");
  const LocationId id = static_cast<LocationId>(locations_.size());
  if (name.empty()) name = "shloc" + std::to_string(id);
  locations_.push_back(std::make_unique<LocationBuffer>(
      id, mem::Segment::external_view(bytes.data(), bytes.size()),
      std::move(name), static_cast<GrantSink*>(this)));
  locations_.back()->queue().set_batch_grants(opts_.batch_grants);
  return id;
}

void Runtime::set_location_port(LocationId loc, RequestPort* port) {
  ORWL_CHECK_MSG(!ran_, "cannot reroute a location after run()");
  ORWL_CHECK_MSG(opts_.transport == RuntimeOptions::Transport::Shm,
                 "location ports need Transport::Shm");
  ORWL_CHECK_MSG(loc >= 0 && loc < num_locations(), "unknown location " << loc);
  ORWL_CHECK_MSG(port != nullptr, "location port must not be null");
  locations_[static_cast<std::size_t>(loc)]->set_port(port);
}

FifoQueue& Runtime::location_queue(LocationId loc) {
  ORWL_CHECK_MSG(loc >= 0 && loc < num_locations(), "unknown location " << loc);
  return locations_[static_cast<std::size_t>(loc)]->queue();
}

void Runtime::set_remote_sink(GrantSink* sink) {
  ORWL_CHECK_MSG(opts_.transport == RuntimeOptions::Transport::Shm,
                 "a remote sink needs Transport::Shm");
  remote_sink_ = sink;
}

TaskId Runtime::add_task(std::string name, TaskFn fn) {
  ORWL_CHECK_MSG(!ran_, "cannot add tasks after run()");
  ORWL_CHECK_MSG(fn != nullptr, "task body must be callable");
  const TaskId id = static_cast<TaskId>(tasks_.size());
  if (name.empty()) name = "task" + std::to_string(id);
  TaskRec rec;
  rec.name = std::move(name);
  rec.fn = std::move(fn);
  rec.events = std::make_unique<EventQueue>(opts_.wait);
  tasks_.push_back(std::move(rec));
  stats_.resize(static_cast<int>(tasks_.size()));
  return id;
}

HandleId Runtime::add_handle(TaskId task, LocationId location, AccessMode mode,
                             bool prime) {
  ORWL_CHECK_MSG(!ran_, "cannot add handles after run()");
  ORWL_CHECK_MSG(task >= 0 && task < num_tasks(), "unknown task " << task);
  ORWL_CHECK_MSG(location >= 0 && location < num_locations(),
                 "unknown location " << location);
  const HandleId id = static_cast<HandleId>(handles_.size());
  LocationBuffer& loc = *locations_[static_cast<std::size_t>(location)];
  // One more request owner on this location's ring: keep the ORWL
  // in-flight bound (2 requests per owner) below ring capacity so
  // release_and_renew can never fill it (see FifoQueue::reserve_owners).
  loc.queue().reserve_owners(1);
  handles_.push_back(std::make_unique<Handle>(id, task, loc, mode,
                                              opts_.wait));
  // Per-handle observability: wait-length and acquire-latency histograms,
  // named by handle so the dump/report can attribute contention.
  const std::string suffix = "/h" + std::to_string(id);
  handles_.back()->set_metrics(
      &metrics_.histogram("orwl.wait_rounds" + suffix),
      &metrics_.histogram("orwl.acquire_ns" + suffix));
  if (prime) prime_order_.push_back(id);
  return id;
}

void Runtime::set_compute_binding(TaskId task, topo::Bitmap cpuset) {
  ORWL_CHECK_MSG(task >= 0 && task < num_tasks(), "unknown task " << task);
  tasks_[static_cast<std::size_t>(task)].compute_bind = std::move(cpuset);
}

void Runtime::set_control_binding(TaskId task, topo::Bitmap cpuset) {
  ORWL_CHECK_MSG(task >= 0 && task < num_tasks(), "unknown task " << task);
  tasks_[static_cast<std::size_t>(task)].control_bind = std::move(cpuset);
}

void Runtime::set_shared_control_binding(int pool_index, topo::Bitmap cpuset) {
  ORWL_CHECK_MSG(opts_.control == RuntimeOptions::ControlMode::SharedPool,
                 "shared control bindings need ControlMode::SharedPool");
  ORWL_CHECK_MSG(pool_index >= 0 &&
                     pool_index < static_cast<int>(shared_bindings_.size()),
                 "pool index " << pool_index << " out of range");
  shared_bindings_[static_cast<std::size_t>(pool_index)] = std::move(cpuset);
}

void Runtime::set_epoch_hook(int epoch_length, EpochHook hook) {
  ORWL_CHECK_MSG(!ran_, "cannot install an epoch hook after run()");
  ORWL_CHECK_MSG(epoch_length >= 1,
                 "epoch length must be >= 1, got " << epoch_length);
  ORWL_CHECK_MSG(hook != nullptr, "epoch hook must be callable");
  epoch_length_ = epoch_length;
  epoch_hook_ = std::move(hook);
}

void Runtime::epoch_fire(sync::UniqueLock& lock) {
  // Everyone expected has arrived: parked threads cannot advance and no
  // task can retire, so the hook owns the run. Release the lock while it
  // executes — the hook calls back into rebind_* and the Instrument.
  // order: relaxed — the generation is only ever bumped under esync_mu_,
  // which the caller holds.
  const int epoch =
      static_cast<int>(esync_generation_.load(std::memory_order_relaxed)) + 1;
  const int round = esync_round_;
  lock.unlock();
  obs::trace(obs::EventKind::EpochBegin, static_cast<std::uint64_t>(epoch));
  std::exception_ptr hook_error;
  try {
    if (epoch_hook_) epoch_hook_(epoch, round);
  } catch (...) {
    hook_error = std::current_exception();
  }
  obs::trace(obs::EventKind::EpochEnd, static_cast<std::uint64_t>(epoch));
  lock.lock();
  esync_arrived_ = 0;
  // lint: allow-rmw(epoch generation bump, not a lock-free protocol)
  // order: release — the bump releases the parked arrivals: it publishes
  // the hook's effects (acquire-load in the waiter); notify wakes them.
  esync_generation_.fetch_add(1, std::memory_order_release);
  sync::notify_all(esync_generation_);
  if (hook_error) std::rethrow_exception(hook_error);
}

void Runtime::epoch_arrive(TaskId task, int round) {
  if (epoch_length_ <= 0) return;
  ORWL_CHECK_MSG(task >= 0 && task < num_tasks(), "unknown task " << task);
  std::uint32_t gen;
  {
    sync::UniqueLock lock(esync_mu_);
    if (esync_retired_[static_cast<std::size_t>(task)]) return;
    esync_round_ = round;
    ++esync_arrived_;
    if (esync_arrived_ == esync_members_) {
      epoch_fire(lock);
      return;
    }
    // order: relaxed — read the generation before dropping the lock (which
    // orders it): a boundary that fires in between bumps it, so the park
    // below returns immediately.
    gen = esync_generation_.load(std::memory_order_relaxed);
  }
  (void)sync::wait_while_equal(esync_generation_, gen, opts_.wait);
}

void Runtime::epoch_retire(TaskId task) {
  if (epoch_length_ <= 0) return;
  ORWL_CHECK_MSG(task >= 0 && task < num_tasks(), "unknown task " << task);
  sync::UniqueLock lock(esync_mu_);
  if (esync_retired_[static_cast<std::size_t>(task)]) return;
  esync_retired_[static_cast<std::size_t>(task)] = 1;
  --esync_members_;
  // The departure may complete a boundary the remaining tasks are parked
  // at.
  if (esync_members_ > 0 && esync_arrived_ == esync_members_)
    epoch_fire(lock);
}

bool Runtime::rebind_compute_thread(TaskId task, const topo::Bitmap& cpuset) {
  ORWL_CHECK_MSG(task >= 0 && task < num_tasks(), "unknown task " << task);
  sync::LockGuard lock(esync_mu_);
  const auto& h = compute_handles_[static_cast<std::size_t>(task)];
  return h && topo::bind_thread(*h, cpuset);
}

bool Runtime::rebind_control_thread(TaskId task, const topo::Bitmap& cpuset) {
  ORWL_CHECK_MSG(task >= 0 && task < num_tasks(), "unknown task " << task);
  if (opts_.control != RuntimeOptions::ControlMode::PerTask) return false;
  sync::LockGuard lock(esync_mu_);
  const auto& h = control_handles_[static_cast<std::size_t>(task)];
  return h && topo::bind_thread(*h, cpuset);
}

int Runtime::place_location_memory(const std::vector<int>& compute_pu,
                                   const topo::Topology& topo,
                                   const mem::NumaInfo* numa) {
  if (opts_.memory == mem::MemoryPolicy::Heap) return 0;
  const mem::NumaInfo& info = numa ? *numa : mem::NumaInfo::host();
  if (!info.available()) return 0;
  int moved = 0;

  if (opts_.memory == mem::MemoryPolicy::NumaInterleave) {
    // Interleave is node-agnostic: apply once per location, re-placements
    // have nothing to move.
    const std::vector<int> ids = info.node_ids();
    for (const auto& loc : locations_) {
      if (loc->size() == 0 || loc->storage().interleaved()) continue;
      loc->storage().interleave(ids);
      ++moved;
    }
    if (moved > 0)
      obs::trace(obs::EventKind::PageMove, static_cast<std::uint64_t>(moved));
    return moved;
  }

  // NumaLocal. The planned writer of a location is the task behind its
  // first Write handle in registration (= canonical priming) order.
  std::vector<TaskId> writer(locations_.size(), -1);
  for (const auto& h : handles_) {
    if (h->mode() != AccessMode::Write) continue;
    const auto li = static_cast<std::size_t>(h->location());
    if (writer[li] < 0) writer[li] = h->task();
  }
  const auto pus = topo.pus();
  for (std::size_t li = 0; li < locations_.size(); ++li) {
    const TaskId w = writer[li];
    if (w < 0 || static_cast<std::size_t>(w) >= compute_pu.size()) continue;
    const int cpu = compute_pu[static_cast<std::size_t>(w)];
    if (cpu < 0 || cpu >= static_cast<int>(pus.size())) continue;
    const int node =
        info.node_of_cpu(pus[static_cast<std::size_t>(cpu)]->os_index);
    if (node < 0) continue;
    LocationBuffer& loc = *locations_[li];
    if (loc.size() == 0 || loc.storage().target_node() == node) continue;
    loc.storage().bind_to_node(node);
    ++moved;
  }
  if (moved > 0)
    obs::trace(obs::EventKind::PageMove, static_cast<std::uint64_t>(moved));
  return moved;
}

int Runtime::location_node(LocationId loc) const {
  ORWL_CHECK_MSG(loc >= 0 && loc < num_locations(), "unknown location " << loc);
  return locations_[static_cast<std::size_t>(loc)]->storage().target_node();
}

const mem::Segment& Runtime::location_storage(LocationId loc) const {
  ORWL_CHECK_MSG(loc >= 0 && loc < num_locations(), "unknown location " << loc);
  return locations_[static_cast<std::size_t>(loc)]->storage();
}

Handle& Runtime::handle(HandleId h) {
  ORWL_CHECK_MSG(h >= 0 && h < num_handles(), "unknown handle " << h);
  return *handles_[static_cast<std::size_t>(h)];
}

const std::string& Runtime::task_name(TaskId t) const {
  ORWL_CHECK_MSG(t >= 0 && t < num_tasks(), "unknown task " << t);
  return tasks_[static_cast<std::size_t>(t)].name;
}

std::span<std::byte> Runtime::location_data(LocationId loc) {
  ORWL_CHECK_MSG(loc >= 0 && loc < num_locations(), "unknown location " << loc);
  LocationBuffer& buf = *locations_[static_cast<std::size_t>(loc)];
  buf.storage().zero_if_pending();
  return buf.data();
}

std::size_t Runtime::location_size(LocationId loc) const {
  ORWL_CHECK_MSG(loc >= 0 && loc < num_locations(), "unknown location " << loc);
  return locations_[static_cast<std::size_t>(loc)]->size();
}

void Runtime::on_grant(Request& req) {
  // Called with the location queue lock held — keep it lean. The trace
  // hook is one relaxed flag load when tracing is off.
  obs::trace(obs::EventKind::Grant, static_cast<std::uint64_t>(req.handle));
  stats_.record_grant(req.mode);
  LocationBuffer& loc = *locations_[static_cast<std::size_t>(req.location)];
  if (req.owner == kRemoteOwner) {
    // Proxied peer request: the owner is not a local task, so neither the
    // task table nor the flow shards may be indexed with it — hand the
    // grant to the transport sink, which publishes it into the shm ring.
    if (req.mode == AccessMode::Write) loc.set_last_writer(kRemoteOwner);
    ORWL_ASSERT_MSG(remote_sink_ != nullptr,
                    "remote-owned grant with no remote sink installed");
    remote_sink_->on_grant(req);
    return;
  }
  // Reads consume the last writer's bytes; a write-after-write moves
  // ownership of the buffer — either way the flow edge is the same.
  // (record_flow ignores negative producers, so a remote last writer
  // simply drops the edge — cross-process flows are the transport's
  // metrics, not this Instrument's.)
  if (opts_.record_flows)
    stats_.record_flow(loc.last_writer(), req.owner, loc.size());
  if (req.mode == AccessMode::Write) loc.set_last_writer(req.owner);
  route_grant(req);
}

void Runtime::route_grant(Request& req) {
  // Inline idle delivery (RuntimeOptions::inline_idle_delivery): an empty
  // control backlog means there is nothing to batch, so the hop through
  // the control thread would only add wake latency — deliver here. The
  // idle() probe is advisory; a stale answer is safe either way because
  // delivery is a notify (idempotent, the waiter re-checks state). Only
  // the post below fills a backlog, so with the option on the queue stays
  // empty and every grant takes the inline branch; the post runs only
  // with the option off.
  switch (opts_.control) {
    case RuntimeOptions::ControlMode::Direct:
      Handle::deliver_grant(req);
      break;
    case RuntimeOptions::ControlMode::PerTask: {
      EventQueue& q = *tasks_[static_cast<std::size_t>(req.owner)].events;
      if (opts_.inline_idle_delivery && q.idle())
        Handle::deliver_grant(req);
      else
        q.post({&req});
      break;
    }
    case RuntimeOptions::ControlMode::SharedPool: {
      EventQueue& q = *shared_queues_[static_cast<std::size_t>(req.owner) %
                                      shared_queues_.size()];
      if (opts_.inline_idle_delivery && q.idle())
        Handle::deliver_grant(req);
      else
        q.post({&req});
      break;
    }
  }
}

void Runtime::on_grant_batch(std::span<Request* const> reqs) {
  // A whole shared-read run in one announcement. The per-request
  // bookkeeping below is exactly on_grant's; the batch buys one virtual
  // dispatch for the run plus the grouped routing at the end (one event
  // post and one wake per destination queue instead of one per reader).
  obs::trace(obs::EventKind::GrantBatch, reqs.size());
  // Scratch is thread-local, not a member: combiners of DIFFERENT
  // locations may announce concurrently, and one thread never nests
  // announcements (sinks must not re-enter queues). Steady-state the
  // vector is warm — no allocation on the grant path.
  thread_local std::vector<Request*> local;
  local.clear();
  for (Request* req : reqs) {
    obs::trace(obs::EventKind::Grant, static_cast<std::uint64_t>(req->handle));
    stats_.record_grant(req->mode);
    LocationBuffer& loc =
        *locations_[static_cast<std::size_t>(req->location)];
    if (req->owner == kRemoteOwner) {
      // Proxied peer request (see on_grant): not a local task, so it must
      // not reach the task table or flow shards — the transport publishes
      // it into the shm ring. Batches are read runs, but keep the
      // last-writer discipline symmetric with on_grant anyway.
      if (req->mode == AccessMode::Write) loc.set_last_writer(kRemoteOwner);
      ORWL_ASSERT_MSG(remote_sink_ != nullptr,
                      "remote-owned grant with no remote sink installed");
      remote_sink_->on_grant(*req);
      continue;
    }
    if (opts_.record_flows)
      stats_.record_flow(loc.last_writer(), req->owner, loc.size());
    if (req->mode == AccessMode::Write) loc.set_last_writer(req->owner);
    local.push_back(req);
  }
  route_grant_batch({local.data(), local.size()});
}

void Runtime::route_grant_batch(std::span<Request* const> reqs) {
  if (reqs.empty()) return;
  if (opts_.control == RuntimeOptions::ControlMode::Direct) {
    for (Request* r : reqs) Handle::deliver_grant(*r);
    return;
  }
  const auto queue_of = [this](const Request* r) -> EventQueue& {
    if (opts_.control == RuntimeOptions::ControlMode::PerTask)
      return *tasks_[static_cast<std::size_t>(r->owner)].events;
    return *shared_queues_[static_cast<std::size_t>(r->owner) %
                           shared_queues_.size()];
  };
  // Group by destination queue with the same tiny-quadratic scan as
  // deliver_batch (runs are bounded by the location's reader count). Each
  // group goes through ONE post_batch — one lock round-trip and one wake
  // for the whole run — unless the queue is idle, in which case the
  // announcer delivers inline: every waiter needs its own notify no matter
  // who issues it, so the control-thread hop would only add latency (the
  // same reasoning as route_grant's single-grant short-cut, and likewise
  // always taken while inline_idle_delivery is on).
  thread_local std::vector<Event> events;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    EventQueue& q = queue_of(reqs[i]);
    bool grouped = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (&queue_of(reqs[j]) == &q) {
        grouped = true;
        break;
      }
    }
    if (grouped) continue;
    events.clear();
    for (std::size_t j = i; j < reqs.size(); ++j)
      if (&queue_of(reqs[j]) == &q) events.push_back({reqs[j]});
    if (opts_.inline_idle_delivery && q.idle()) {
      for (const Event& ev : events) Handle::deliver_grant(*ev.request);
    } else {
      q.post_batch({events.data(), events.size()});
    }
  }
}

void Runtime::deliver_batch(const std::vector<Event>& batch) {
  // Coalesce per handle: a request whose renewal was granted while its
  // earlier announcement still sat in the backlog appears twice — one
  // notify covers both (the waiter re-checks the state, never the count).
  // Batches are bounded by the serviced tasks' handle counts, so the
  // quadratic scan stays tiny.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Request* req = batch[i].request;
    bool coalesced = false;
    for (std::size_t j = 0; j < i; ++j) {
      if (batch[j].request == req) {
        coalesced = true;
        break;
      }
    }
    if (!coalesced) Handle::deliver_grant(*req);
  }
}

void Runtime::shared_control_loop(int pool_index) {
  set_current_thread_name("ctlpool:" + std::to_string(pool_index));
  const auto& bind = shared_bindings_[static_cast<std::size_t>(pool_index)];
  if (bind) topo::bind_current_thread(*bind);
  EventQueue& queue = *shared_queues_[static_cast<std::size_t>(pool_index)];
  // Batched delivery: drain the whole backlog per wake instead of paying
  // one lock round-trip (and possibly one park) per event under bursts.
  std::vector<Event> batch;
  while (queue.pop_all(batch)) {
    deliver_batch(batch);
    batch.clear();
  }
}

void Runtime::control_loop(TaskId task) {
  TaskRec& rec = tasks_[static_cast<std::size_t>(task)];
  set_current_thread_name("ctl:" + rec.name);
  {
    sync::LockGuard lock(esync_mu_);
    control_handles_[static_cast<std::size_t>(task)] =
        topo::current_thread_handle();
  }
  if (rec.control_bind) topo::bind_current_thread(*rec.control_bind);
  std::vector<Event> batch;
  while (rec.events->pop_all(batch)) {
    deliver_batch(batch);
    batch.clear();
  }
}

void Runtime::run() {
  ORWL_CHECK_MSG(!ran_, "Runtime::run() may only be called once");
  ORWL_CHECK_MSG(!tasks_.empty(), "no tasks to run");
  ran_ = true;

  // Epoch barrier population: every task participates until it retires.
  // (Still single-threaded here, but the barrier fields are guarded by
  // esync_mu_, so take it — uncontended — to keep the annotation honest.)
  {
    sync::LockGuard lock(esync_mu_);
    esync_members_ = num_tasks();
    esync_arrived_ = 0;
    // order: relaxed — no thread exists yet; thread creation below is the
    // synchronization point that publishes this store.
    esync_generation_.store(0, std::memory_order_relaxed);
    esync_retired_.assign(tasks_.size(), 0);
    compute_handles_.assign(tasks_.size(), std::nullopt);
    control_handles_.assign(tasks_.size(), std::nullopt);
  }

  // Canonical priming: initial requests in registration order. This global
  // deterministic order is what makes iterative ORWL programs live.
  for (HandleId h : prime_order_)
    handles_[static_cast<std::size_t>(h)]->request();

  // Deferred zero fill (add_location). A location whose first grant is a
  // local task's Write is held by that task alone until its body releases
  // it, so the task's compute thread zeroes it: the first touch lands on
  // the writer's PU. The run() thread zeroes every other pending location
  // now, before any compute thread exists.
  std::vector<std::vector<mem::Segment*>> first_writes(tasks_.size());
  std::vector<char> deferred(locations_.size(), 0);
  for (HandleId h : prime_order_) {
    const Handle& hd = *handles_[static_cast<std::size_t>(h)];
    const auto li = static_cast<std::size_t>(hd.location());
    LocationBuffer& loc = *locations_[li];
    const bool local = &loc.port() == &loc.queue();
    if (hd.mode() != AccessMode::Write || !local ||
        !loc.storage().zero_pending() || !hd.test())
      continue;
    deferred[li] = 1;
    first_writes[static_cast<std::size_t>(hd.task())].push_back(
        &loc.storage());
  }
  for (std::size_t li = 0; li < locations_.size(); ++li)
    if (!deferred[li]) locations_[li]->storage().zero_if_pending();

  // Control threads first so primed grants get delivered.
  std::vector<std::thread> control;
  if (opts_.control == RuntimeOptions::ControlMode::PerTask) {
    control.reserve(tasks_.size());
    for (TaskId t = 0; t < num_tasks(); ++t)
      control.emplace_back([this, t] { control_loop(t); });
  } else if (opts_.control == RuntimeOptions::ControlMode::SharedPool) {
    control.reserve(shared_queues_.size());
    for (int i = 0; i < static_cast<int>(shared_queues_.size()); ++i)
      control.emplace_back([this, i] { shared_control_loop(i); });
  }

  sync::Mutex err_mu;
  std::exception_ptr first_error;

  std::vector<std::thread> compute;
  compute.reserve(tasks_.size());
  for (TaskId t = 0; t < num_tasks(); ++t) {
    compute.emplace_back([this, t, &err_mu, &first_error, &first_writes] {
      TaskRec& rec = tasks_[static_cast<std::size_t>(t)];
      set_current_thread_name(rec.name);
      {
        sync::LockGuard lock(esync_mu_);
        compute_handles_[static_cast<std::size_t>(t)] =
            topo::current_thread_handle();
      }
      if (rec.compute_bind) topo::bind_current_thread(*rec.compute_bind);
      for (mem::Segment* seg : first_writes[static_cast<std::size_t>(t)])
        seg->zero_if_pending();
      TaskContext ctx(*this, t);
      const auto record_error = [&] {
        sync::LockGuard lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      };
      try {
        rec.fn(ctx);
      } catch (...) {
        record_error();
      }
      // A body that returned (or threw) makes no further epoch arrivals;
      // without this, a boundary would wait for it forever. Retiring can
      // complete a boundary and run the epoch hook here — catch its
      // exceptions too, or they would escape the thread and terminate.
      try {
        epoch_retire(t);
      } catch (...) {
        record_error();
      }
    });
  }

  for (auto& th : compute) th.join();
  for (auto& rec : tasks_) rec.events->stop();
  for (auto& q : shared_queues_) q->stop();
  for (auto& th : control) th.join();

  if (first_error) std::rethrow_exception(first_error);
}

comm::CommMatrix Runtime::static_comm_matrix() const {
  // "We cluster threads that share data" (paper Sec. II): every pair of
  // tasks holding handles on the same location gets an affinity of the
  // location's size — including reader-reader pairs, which share the
  // buffer in cache even though no bytes flow between them.
  comm::CommMatrix m(num_tasks());
  for (const auto& loc : locations_) {
    const auto bytes = static_cast<double>(loc->size());
    if (bytes == 0.0) continue;
    std::vector<TaskId> sharers;
    for (const auto& h : handles_) {
      if (h->location() != loc->id()) continue;
      if (std::find(sharers.begin(), sharers.end(), h->task()) ==
          sharers.end())
        sharers.push_back(h->task());
    }
    for (std::size_t i = 0; i < sharers.size(); ++i)
      for (std::size_t j = i + 1; j < sharers.size(); ++j)
        m.add(sharers[i], sharers[j], bytes);
  }
  return m;
}

comm::CommMatrix Runtime::measured_comm_matrix() const {
  return stats_.flow_matrix();
}

}  // namespace orwl
