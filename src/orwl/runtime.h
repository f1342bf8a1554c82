#pragma once
// Runtime: owns locations, tasks and handles; runs the whole ORWL program
// with one thread per task. Every lock grant is delivered in the thread
// that announces it, so the per-task control threads of the paper's
// runtime have no counterpart here (docs/placement.md, "Line 1"). The
// binding hooks are the ones the placement module drives.
//
// NOTE FOR NEWCOMERS: this is the low-level, byte-span layer. Applications
// should normally be written against the typed orwl::Program front-end
// (orwl/program.h) — typed locations, fluent task declarations, sections
// that renew themselves — and executed through a Backend (orwl/backend.h),
// which drives this Runtime (or the simulator) for you, placement
// included. The raw API below stays supported for runtime-internal work
// and for code that needs manual handle control.
//
// Typical (low-level) use:
//   Runtime rt;
//   auto data  = rt.add_location(nbytes, "block0");
//   auto t     = rt.add_task("main0", body);
//   auto h     = rt.add_handle(t, data, AccessMode::Write);
//   rt.set_compute_binding(t, cpuset);        // optional (ORWL Bind)
//   rt.run();                                 // primes FIFOs, spawns, joins
//
// Handle registration order defines the canonical initial FIFO insertion
// order — the ORWL liveness discipline for iterative programs.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "comm/comm_matrix.h"
#include "mem/policy.h"
#include "mem/segment.h"
#include "obs/metrics.h"
#include "orwl/handle.h"
#include "orwl/instrument.h"
#include "orwl/location.h"
#include "orwl/task.h"
#include "support/thread_annotations.h"
#include "sync/mutex.h"
#include "sync/wait_strategy.h"
#include "topo/binding.h"
#include "topo/bitmap.h"

namespace orwl::mem {
class NumaInfo;
}
namespace orwl::topo {
class Topology;
}

namespace orwl {

struct RuntimeOptions {
  /// How lock grants reach the waiting compute thread. Only Direct runs:
  /// the announcing thread delivers every grant, and a run starts one
  /// thread per task. The Runtime constructor rejects PerTask and
  /// SharedPool, whose control threads are gone.
  // Kept only because perfbench/ reads it; removed with ROADMAP item 1(b).
  enum class ControlMode {
    Direct,      ///< granted in the announcing thread
    PerTask,     ///< removed: the Runtime constructor throws
    SharedPool,  ///< removed: the Runtime constructor throws
  };
  ControlMode control = ControlMode::Direct;

  /// Record the measured communication-flow matrix (small overhead).
  bool record_flows = true;

  /// Has no effect: every grant is delivered inline.
  // Kept only because perfbench/ reads it; removed with ROADMAP item 1(b).
  bool inline_idle_delivery = true;

  /// Batched shared-read grants: a head run of >= 2 concurrent readers is
  /// announced through ONE GrantSink::on_grant_batch call instead of one
  /// virtual call per reader. Off reproduces the per-grant announcement
  /// sequence exactly (benches A/B the two; delivery order within a run is
  /// unchanged either way).
  bool batch_grants = true;

  /// How every parking point of this runtime waits (handle grant waits,
  /// the epoch barrier): block, spin, or spin-then-park. See
  /// sync/wait_strategy.h. The default spins 256 rounds before parking, so
  /// a grant handed off within a few microseconds is picked up without the
  /// futex park/wake pair that `block` pays on every handoff.
  sync::WaitStrategy wait = sync::WaitStrategy::spin_then_park();

  /// Where location pages live (mem/policy.h): the process heap (default)
  /// or NUMA-aware mmap segments that place_location_memory() binds to the
  /// planned writers' nodes / interleaves across nodes. Falls back to the
  /// heap on hosts without the NUMA syscalls.
  mem::MemoryPolicy memory = mem::MemoryPolicy::Heap;

  /// How this runtime reaches its peers (cross-address-space ORWL).
  /// Inproc: every task lives in this process (the default; nothing
  /// changes). Shm: some locations live in a shared mapping and an ipc::
  /// endpoint (OwnerEndpoint or PeerEndpoint) is wired onto this runtime —
  /// the option is carried through RuntimeBackend so programs select the
  /// transport the same way they select the memory policy.
  enum class Transport : std::uint8_t { Inproc, Shm };
  Transport transport = Transport::Inproc;
};

/// The Runtime itself is the GrantSink of every location FIFO: a grant
/// announcement is a virtual call on `this`, never an allocation.
class Runtime : private GrantSink {
 public:
  explicit Runtime(RuntimeOptions opts = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // --- program construction (single-threaded, before run()) -------------

  /// Create a location holding `bytes` bytes, zero before anyone reads
  /// them. A heap location is zeroed late, on the thread that first
  /// touches it: location_data() zeroes it on the calling thread; run()
  /// zeroes it on the compute thread of its first grant's task, after the
  /// thread binds and before its body runs, when that grant (after
  /// canonical priming) is an exclusive Write of a local task, and on the
  /// run() thread before any compute thread starts otherwise. mmap-backed
  /// (NUMA) locations are zero on first touch.
  LocationId add_location(std::size_t bytes, std::string name = {});

  /// Create a task: one compute thread.
  TaskId add_task(std::string name, TaskFn fn);

  /// Register task access to a location. When `prime` is true the runtime
  /// inserts the first request during run() start-up, in registration
  /// order.
  HandleId add_handle(TaskId task, LocationId location, AccessMode mode,
                      bool prime = true);

  // --- cross-address-space locations (RuntimeOptions::transport) ----------

  /// Create a location whose bytes live in memory owned elsewhere — a
  /// window into an ipc:: shared segment. The mapping must outlive the
  /// runtime; the FIFO (and grant arbitration) still live here, in the
  /// process that calls this. Requires Transport::Shm.
  LocationId add_shared_location(std::span<std::byte> bytes,
                                 std::string name = {});

  /// Redirect a location's handle operations to `port` (peer side of the
  /// shm transport: operations are forwarded to the hosting process).
  /// Single-threaded setup only, before run(). Requires Transport::Shm.
  void set_location_port(LocationId loc, RequestPort* port);

  /// The location's local FIFO (the ipc:: owner endpoint inserts proxied
  /// peer requests into it directly).
  [[nodiscard]] FifoQueue& location_queue(LocationId loc);

  /// Sink that receives grants whose request is owned by a remote peer
  /// (Request::owner == kRemoteOwner) instead of a local task — the
  /// ipc::RemoteGrantSink publishing into the shm ring. Non-owning; must
  /// outlive run(). Requires Transport::Shm.
  void set_remote_sink(GrantSink* sink);

  // --- placement hooks ---------------------------------------------------

  /// Bind the task's compute thread to the given cpuset for the whole run.
  void set_compute_binding(TaskId task, topo::Bitmap cpuset);

  // --- epochs (online re-placement) ---------------------------------------
  //
  // An epoch is a window of `epoch_length` iterations. Task bodies built by
  // the backends call epoch_arrive() between iterations at every epoch
  // boundary; the arrivals form a barrier over all not-yet-retired tasks.
  // When the last participant arrives, the installed hook runs in that
  // thread — with every other participating compute thread parked — and may
  // inspect the Instrument's epoch window and rebind threads before the
  // barrier releases. Tasks leave the barrier population with
  // epoch_retire() (idempotent; called automatically when a task body
  // returns) so heterogeneous iteration counts cannot deadlock a boundary.

  /// Runs at each epoch boundary: `epoch` counts boundaries from 1, `round`
  /// is the iteration index about to start.
  using EpochHook = std::function<void(int epoch, int round)>;

  /// Install the epoch schedule. Call before run(); epoch_length >= 1.
  void set_epoch_hook(int epoch_length, EpochHook hook);
  [[nodiscard]] int epoch_length() const { return epoch_length_; }

  /// Barrier arrival at the boundary before iteration `round`. Blocks
  /// until the boundary completes. No-op when no hook is installed.
  void epoch_arrive(TaskId task, int round);
  /// The task will make no further epoch_arrive() calls.
  void epoch_retire(TaskId task);

  /// Re-bind a live compute thread mid-run (epoch-hook context: the
  /// compute threads are parked at the barrier). Returns false when the
  /// thread cannot be rebound — not yet started or already exited.
  bool rebind_compute_thread(TaskId task, const topo::Bitmap& cpuset);

  // --- location memory placement (RuntimeOptions::memory) ----------------

  /// Place every location's pages according to the memory policy, given
  /// the compute mapping the placement produced (logical PU per task, -1
  /// unbound): numa_local targets the NUMA node of each location's
  /// planned writer (its first Write handle in registration order),
  /// numa_interleave spreads pages across all nodes; heap is a no-op.
  /// Already-touched pages are migrated (MPOL_MF_MOVE), so this serves
  /// both the initial apply_plan and epoch-boundary re-placement — call
  /// it only before run() or from an epoch hook (compute threads parked).
  /// `numa` overrides the host node inventory (tests); pass nullptr for
  /// the real machine. Returns the number of locations whose target
  /// changed (intent — on fallback hosts the kernel may not move bytes).
  int place_location_memory(const std::vector<int>& compute_pu,
                            const topo::Topology& topo,
                            const mem::NumaInfo* numa = nullptr);

  /// Intended NUMA node of a location's pages; -1 = unconstrained.
  [[nodiscard]] int location_node(LocationId loc) const;
  /// The backing segment (tests/diagnostics).
  [[nodiscard]] const mem::Segment& location_storage(LocationId loc) const;
  [[nodiscard]] mem::MemoryPolicy memory_policy() const {
    return opts_.memory;
  }

  // --- accessors ----------------------------------------------------------

  [[nodiscard]] int num_tasks() const { return static_cast<int>(tasks_.size()); }
  [[nodiscard]] int num_locations() const {
    return static_cast<int>(locations_.size());
  }
  [[nodiscard]] int num_handles() const {
    return static_cast<int>(handles_.size());
  }

  Handle& handle(HandleId h);
  [[nodiscard]] const std::string& task_name(TaskId t) const;

  /// Direct buffer access for pre-run initialization (first touch!) and
  /// post-run result extraction; zeroes a still-pending location first.
  /// Do not use while tasks are running.
  std::span<std::byte> location_data(LocationId loc);
  [[nodiscard]] std::size_t location_size(LocationId loc) const;

  // --- execution ----------------------------------------------------------

  /// Prime the FIFOs, zero the pending locations (add_location), spawn
  /// one compute thread per task, wait for all task bodies to return.
  /// Runs once; a second call throws.
  /// Exceptions thrown by task bodies are rethrown here (first one wins).
  void run();

  // --- communication matrices (paper Sec. II) -----------------------------

  /// Static matrix derived from handle registrations: every pair of tasks
  /// holding handles on one location shares its size
  /// (comm::sharing_matrix).
  [[nodiscard]] comm::CommMatrix static_comm_matrix() const;

  /// Measured matrix from recorded grant flows (available after run()).
  [[nodiscard]] comm::CommMatrix measured_comm_matrix() const;

  [[nodiscard]] const Instrument& stats() const { return stats_; }
  /// Mutable access for epoch-window management (begin_epoch).
  [[nodiscard]] Instrument& stats() { return stats_; }

  /// This runtime's metric store: the Instrument counters plus the
  /// per-handle wait-round / acquire-latency histograms. Snapshot it after
  /// run() (or from an epoch hook) for an exact read.
  [[nodiscard]] const obs::Registry& metrics() const { return metrics_; }
  [[nodiscard]] obs::Registry& metrics() { return metrics_; }

 private:
  struct TaskRec {
    std::string name;
    TaskFn fn;
    std::optional<topo::Bitmap> compute_bind;
  };

  /// GrantSink: called by a location FIFO (its lock held) for every newly
  /// granted request — records stats and delivers the grant.
  // sink-contract: no-queue-reentry — only notifies the waiter; never
  // calls back into the announcing FifoQueue.
  void on_grant(Request& req) override;
  /// GrantSink: one announcement for a whole shared-read run; each request
  /// then goes through on_grant.
  // sink-contract: no-queue-reentry — same as on_grant; only notifies
  // waiters, never re-enters the announcing queue.
  void on_grant_batch(std::span<Request* const> reqs) override;
  /// Complete the current epoch boundary: run the hook (lock released
  /// while it executes), then wake the parked tasks. Caller holds `lock`
  /// on esync_mu_; the analysis cannot follow a capability through a lock
  /// object passed by reference, hence the opt-out.
  void epoch_fire(sync::UniqueLock& lock) ORWL_NO_THREAD_SAFETY_ANALYSIS;

  RuntimeOptions opts_;
  mem::Arena arena_;
  std::vector<std::unique_ptr<LocationBuffer>> locations_;
  std::vector<TaskRec> tasks_;
  std::vector<std::unique_ptr<Handle>> handles_;
  std::vector<HandleId> prime_order_;
  obs::Registry metrics_;  // declared before stats_: Instrument borrows it
  Instrument stats_;

  GrantSink* remote_sink_ = nullptr;
  bool ran_ = false;

  // Epoch barrier state, guarded by esync_mu_ — except the generation
  // word, which parked arrivals wait on through the sync:: waiter (the
  // same strategy as every other parking point). Thread handles are
  // registered under the same mutex (compute threads self-register before
  // their first possible arrival), so the hook always sees them.
  int epoch_length_ = 0;
  EpochHook epoch_hook_;
  sync::Mutex esync_mu_;
  /// Tasks still participating.
  int esync_members_ ORWL_GUARDED_BY(esync_mu_) = 0;
  /// Arrivals at the current boundary.
  int esync_arrived_ ORWL_GUARDED_BY(esync_mu_) = 0;
  /// Completed boundaries; bumped (release) when a boundary fires and
  /// notified so parked arrivals resume.
  std::atomic<std::uint32_t> esync_generation_{0};
  /// Round of the boundary being formed.
  int esync_round_ ORWL_GUARDED_BY(esync_mu_) = 0;
  std::vector<char> esync_retired_ ORWL_GUARDED_BY(esync_mu_);
  std::vector<std::optional<topo::ThreadHandle>> compute_handles_
      ORWL_GUARDED_BY(esync_mu_);
};

}  // namespace orwl
