#pragma once
// Program: the typed, RAII-safe front-end of the ORWL runtime.
//
// A Program is a declarative description of an ORWL computation — typed
// locations, tasks with declared read/write accesses, per-iteration bodies
// — that can be executed by any Backend (orwl/backend.h): RuntimeBackend
// runs it for real on the event-based Runtime; SimBackend predicts its
// behaviour on an arbitrary machine with the NUMA cost model. The same
// definition drives both, which is what lets the benches compare native
// and simulated placements on identical programs.
//
//   Program p;
//   auto a = p.location<long>(1, "a");
//   auto b = p.location<long>(1, "b");
//   p.task("stage0").reads(a).writes(b).iterations(10).body([=](Step& s) {
//     const long v = s.read(a, [](std::span<const long> x) { return x[0]; });
//     s.write(b, [v](std::span<long> x) { x[0] = v + 1; });
//   });
//   p.place(place::Policy::TreeMatch);
//   RuntimeBackend be;
//   RunReport rep = p.run(be);
//   long result = be.fetch(b)[0];
//
// The API encodes the ORWL iterative discipline in the type system:
//  * Location<T> carries the element type, so task bodies see std::span<T>
//    — no byte spans, no reinterpret casts;
//  * bodies name locations, not handle indices — the builder wires the
//    handles;
//  * Section<T> guards (returned by Step::read / Step::write) acquire on
//    construction and automatically release_and_renew() on destruction —
//    or plain release() in the task's last iteration — so the canonical
//    renewal pattern cannot be mis-typed.
//
// Priming order. Handles are enqueued into the location FIFOs in a global
// canonical order that defines which task gets each first grant (the ORWL
// liveness discipline). By default that order is declaration order; when a
// program needs handle-level interleaving across tasks (e.g. "all block
// writes before any frontier read", as in the LK23 decomposition), give
// accesses an explicit rank: all rank-0 accesses are primed first (in
// declaration order), then rank 1, and so on.

#include <cstddef>
#include <cstring>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/comm_matrix.h"
#include "mem/policy.h"
#include "orwl/handle.h"
#include "orwl/runtime.h"
#include "place/placement.h"
#include "place/replace.h"
#include "support/assert.h"
#include "treematch/treematch.h"

namespace orwl {

class Backend;
class Program;
class Step;
struct RunReport;

/// Typed reference to a Program location holding `count()` elements of T.
/// A cheap value type; obtained from Program::location<T>().
template <class T>
class Location {
 public:
  Location() = default;

  [[nodiscard]] LocationId id() const { return id_; }
  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] std::size_t bytes() const { return count_ * sizeof(T); }
  [[nodiscard]] bool valid() const { return id_ >= 0; }

 private:
  friend class Program;
  Location(LocationId id, std::size_t count) : id_(id), count_(count) {}

  LocationId id_ = -1;
  std::size_t count_ = 0;
};

/// RAII section guard: holds a granted lock on a location and exposes the
/// buffer as a typed span. Acquired by Step::read / Step::write; the
/// destructor performs the canonical iterative step — release_and_renew(),
/// or a plain release() when this is the task's last iteration.
template <class T>
class Section {
 public:
  Section(const Section&) = delete;
  Section& operator=(const Section&) = delete;
  Section(Section&& other) noexcept
      : handle_(other.handle_), span_(other.span_), renew_(other.renew_) {
    other.handle_ = nullptr;
  }
  Section& operator=(Section&&) = delete;

  ~Section() {
    if (handle_ == nullptr) return;
    if (renew_)
      handle_->release_and_renew();
    else
      handle_->release();
  }

  [[nodiscard]] std::span<T> span() const { return span_; }
  operator std::span<T>() const { return span_; }  // NOLINT(google-explicit-constructor)
  [[nodiscard]] std::size_t size() const { return span_.size(); }
  [[nodiscard]] T& operator[](std::size_t i) const { return span_[i]; }
  [[nodiscard]] T* data() const { return span_.data(); }
  [[nodiscard]] T* begin() const { return span_.data(); }
  [[nodiscard]] T* end() const { return span_.data() + span_.size(); }

 private:
  friend class Step;
  Section(Handle& h, std::span<T> span, bool renew)
      : handle_(&h), span_(span), renew_(renew) {}

  Handle* handle_;
  std::span<T> span_;
  bool renew_;
};

/// Per-iteration execution context handed to a task body. Knows the task's
/// handles (by location) and the loop position, so sections it hands out
/// renew themselves on every iteration except the last.
///
/// Constructed by backends; user code only consumes it inside bodies.
class Step {
 public:
  /// One declared access, resolved to a runtime handle. Backend internal.
  struct Slot {
    LocationId location = -1;
    AccessMode mode = AccessMode::Read;
    HandleId handle = -1;
    bool pending = true;  ///< a request is enqueued but not yet consumed
  };

  Step(Runtime& rt, TaskId task, int rounds, std::vector<Slot> slots)
      : rt_(rt), task_(task), rounds_(rounds), slots_(std::move(slots)) {}

  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;

  [[nodiscard]] TaskId task() const { return task_; }
  [[nodiscard]] int round() const { return round_; }
  [[nodiscard]] int rounds() const { return rounds_; }
  [[nodiscard]] bool first() const { return round_ == 0; }
  [[nodiscard]] bool last() const { return round_ + 1 >= rounds_; }

  /// Acquire the task's write lock on `loc`. Blocks until granted.
  template <class T>
  [[nodiscard]] Section<T> write(Location<T> loc) {
    Slot& slot = find(loc.id(), AccessMode::Write);
    Handle& h = rt_.handle(slot.handle);
    const std::span<std::byte> bytes = h.acquire();
    check_extent(loc.bytes(), bytes.size(), loc.id());
    const bool renew = !last();
    slot.pending = renew;
    return Section<T>(h, as_span<T>(bytes), renew);
  }

  /// Acquire the task's read lock on `loc`. Blocks until granted.
  template <class T>
  [[nodiscard]] Section<const T> read(Location<T> loc) {
    Slot& slot = find(loc.id(), AccessMode::Read);
    Handle& h = rt_.handle(slot.handle);
    const std::span<const std::byte> bytes = h.acquire_const();
    check_extent(loc.bytes(), bytes.size(), loc.id());
    const bool renew = !last();
    slot.pending = renew;
    return Section<const T>(h, as_span<const T>(bytes), renew);
  }

  /// Scoped form: acquire, run `fn` on the typed span, release-or-renew.
  /// Returns whatever `fn` returns.
  template <class T, class F>
  decltype(auto) write(Location<T> loc, F&& fn) {
    const Section<T> s = write(loc);
    return std::forward<F>(fn)(s.span());
  }
  template <class T, class F>
  decltype(auto) read(Location<T> loc, F&& fn) {
    const Section<const T> s = read(loc);
    return std::forward<F>(fn)(s.span());
  }

  /// Consume any request still pending after the task's last iteration
  /// (declared-but-unused handles, or handles renewed in an iteration that
  /// turned out to be their final use). Called by backends after the body
  /// loop; keeps the location FIFOs drained so other tasks stay live.
  void drain() {
    for (Slot& slot : slots_) {
      if (!slot.pending) continue;
      Handle& h = rt_.handle(slot.handle);
      h.acquire();
      h.release();
      slot.pending = false;
    }
  }

  /// Backend internal: position the step at iteration `r`.
  void set_round(int r) { round_ = r; }

 private:
  Slot& find(LocationId loc, AccessMode mode) {
    for (Slot& slot : slots_)
      if (slot.location == loc && slot.mode == mode) return slot;
    ORWL_CHECK_MSG(false, "task " << task_ << " did not declare "
                                  << to_string(mode) << " access to location "
                                  << loc);
    return slots_.front();  // unreachable
  }

  static void check_extent(std::size_t expect, std::size_t got,
                           LocationId loc) {
    ORWL_CHECK_MSG(expect == got,
                   "location " << loc << " holds " << got
                               << " bytes but the typed reference expects "
                               << expect
                               << " — Location from a different Program?");
  }

  Runtime& rt_;
  TaskId task_;
  int rounds_;
  int round_ = 0;
  std::vector<Slot> slots_;
};

/// A task body: invoked once per iteration with the positioned Step.
using StepFn = std::function<void(Step&)>;

/// Options for one declared access.
struct AccessOpts {
  /// Priming rank: lower ranks are enqueued into the location FIFOs first
  /// (ties broken by declaration order). Defaults to declaration order.
  int rank = 0;
  /// Bytes this access actually moves per grant (simulation hint for
  /// partial reads/writes, e.g. one face of a block). 0 = the whole
  /// location.
  std::size_t touch_bytes = 0;
  /// Round window [from_round, until_round) during which the body actually
  /// exercises this access — the declaration hint behind phase-shifting
  /// workloads. The runtime does not enforce it (the body's control flow
  /// does); SimBackend uses it to derive per-phase exchange edges and the
  /// per-epoch matrices the online re-placer sees. Defaults to all rounds
  /// (until_round == -1 means "to the end of the run").
  int from_round = 0;
  int until_round = -1;
};

/// Fluent builder returned by Program::task(). Cheap value; mutates the
/// task declaration in place, so partial chains are fine.
class TaskBuilder {
 public:
  template <class T>
  TaskBuilder& reads(Location<T> loc, AccessOpts opts = {}) {
    declare(loc.id(), AccessMode::Read, opts);
    return *this;
  }
  template <class T>
  TaskBuilder& writes(Location<T> loc, AccessOpts opts = {}) {
    declare(loc.id(), AccessMode::Write, opts);
    return *this;
  }

  /// Number of times the body runs (the task's iteration count). The
  /// guards renew on every iteration except the last. Default 1.
  TaskBuilder& iterations(int n);

  /// Per-iteration cost annotation for SimBackend: useful flops and bytes
  /// streamed from memory. Ignored by RuntimeBackend.
  TaskBuilder& cost(double flops, double mem_bytes);

  /// The per-iteration body. Terminal in spirit but chainable; a task
  /// without a body can still be analysed (comm matrix, placement) — only
  /// execution requires one.
  TaskBuilder& body(StepFn fn);

  [[nodiscard]] TaskId id() const { return task_; }

 private:
  friend class Program;
  TaskBuilder(Program& p, TaskId t) : program_(&p), task_(t) {}
  void declare(LocationId loc, AccessMode mode, AccessOpts opts);

  Program* program_;
  TaskId task_;
};

/// The declarative ORWL program: typed locations + tasks + placement
/// policy. Execute with Program::run(Backend&); one Program may be run on
/// several backends (that is the point).
class Program {
 public:
  // --- IR, exposed read-only to backends ---------------------------------

  struct LocationDecl {
    std::string name;
    std::size_t bytes = 0;
    std::size_t elem_size = 1;
  };
  struct AccessDecl {
    LocationId location = -1;
    AccessMode mode = AccessMode::Read;
    int rank = 0;
    std::size_t touch_bytes = 0;  ///< 0 = whole location
    std::size_t seq = 0;          ///< program-wide declaration stamp
    int from_round = 0;           ///< active-round window start
    int until_round = -1;         ///< one past the window end; -1 = all
  };
  struct TaskDecl {
    std::string name;
    int iterations = 1;
    double flops = 0.0;      ///< per-iteration, for SimBackend
    double mem_bytes = 0.0;  ///< per-iteration, for SimBackend
    StepFn fn;
    std::vector<AccessDecl> accesses;
  };
  struct InitHook {
    LocationId location = -1;
    std::function<void(std::span<std::byte>)> fn;
  };

  Program() = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;
  Program(Program&&) = default;
  Program& operator=(Program&&) = default;

  // --- construction -------------------------------------------------------

  /// Create a typed location of `count` elements of T, zero before any
  /// task reads it. On RuntimeBackend the zero fill is the location's
  /// first touch, on the thread of its first writer where that is a task
  /// (Runtime::add_location).
  template <class T>
  Location<T> location(std::size_t count, std::string name = {}) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "ORWL locations hold trivially copyable data");
    return Location<T>(add_location(count * sizeof(T), sizeof(T),
                                    std::move(name)),
                       count);
  }

  /// Declare a task; wire it up through the returned fluent builder.
  TaskBuilder task(std::string name);

  /// Pre-run initialization of a location's buffer: `fn(std::span<T>)` is
  /// applied by the backend before execution (after zero-init).
  template <class T, class F>
  void init(Location<T> loc, F&& fn) {
    inits_.push_back(
        {loc.id(), [fn = std::forward<F>(fn),
                    count = loc.count()](std::span<std::byte> bytes) {
           fn(std::span<T>(reinterpret_cast<T*>(bytes.data()), count));
         }});
  }

  /// One-call topology-aware placement: the backend extracts the
  /// communication matrix, runs the policy (Algorithm 1 for TreeMatch) and
  /// installs the bindings — the whole static_comm_matrix → compute_plan →
  /// apply_plan pipeline.
  void place(place::Policy policy, treematch::Options tm_opts = {},
             std::uint64_t seed = 42) {
    policy_ = policy;
    tm_opts_ = tm_opts;
    place_seed_ = seed;
  }

  /// Override the communication matrix the placement policy consumes:
  /// instead of the declaration's static matrix, feed Algorithm 1 an
  /// explicit one — typically the MEASURED flow matrix of a previous
  /// instrumented run (Runtime::measured_comm_matrix), which closes the
  /// paper's feedback loop. Order must equal the task count at run time.
  /// Requires a prior place() — without a policy the matrix would be
  /// silently ignored.
  void place_using(comm::CommMatrix measured) {
    ORWL_CHECK_MSG(policy_.has_value(),
                   "place_using() without a placement policy — call "
                   "place() first");
    place_matrix_ = std::move(measured);
  }

  /// Wait-strategy knob: how this program's compute threads and epoch
  /// barrier wait — block, spin, or spin-then-park
  /// (sync/wait_strategy.h). On RuntimeBackend, unset leaves the backend's
  /// RuntimeOptions default in force (spin_then_park(256) unless the
  /// backend was built with another). SimBackend charges an explicit
  /// non-block strategy grants without the futex park/wake pair
  /// (sim::Workload::spin_waits) and charges unset or block as the
  /// blocking grant its calibrated cost model assumes.
  void wait_strategy(sync::WaitStrategy ws) { wait_ = ws; }
  [[nodiscard]] const std::optional<sync::WaitStrategy>& wait_strategy()
      const {
    return wait_;
  }

  /// Location-memory knob (mem/policy.h): where this program's location
  /// pages live — heap (default), the planned writer's NUMA node
  /// (numa_local, pages migrate with epoch re-placements), or interleaved
  /// across nodes. RuntimeBackend forwards it to RuntimeOptions::memory;
  /// SimBackend models it (post-migration data homes, interleave
  /// bandwidth, page-move cost — sim/cost_model.h). Unset leaves the
  /// backend's RuntimeOptions default in force.
  void memory_policy(mem::MemoryPolicy mp) { memory_ = mp; }
  [[nodiscard]] const std::optional<mem::MemoryPolicy>& memory_policy()
      const {
    return memory_;
  }

  /// Enable online adaptive re-placement (place/replace.h): the backend
  /// accumulates the communication matrix per epoch of
  /// `rp.epoch_length` iterations and, per the policy, re-runs Algorithm 1
  /// on the fresh matrix and rebinds the threads mid-run. Requires a prior
  /// place() — re-placement adapts an existing placement.
  void replacement(place::ReplacementPolicy rp) {
    ORWL_CHECK_MSG(!rp.enabled() || policy_.has_value(),
                   "replacement() without a placement policy — call "
                   "place() first");
    replacement_ = rp;
  }

  // --- execution ----------------------------------------------------------

  /// Run on the given backend. Equivalent to backend.run(*this).
  RunReport run(Backend& backend) const;

  // --- introspection ------------------------------------------------------

  [[nodiscard]] int num_tasks() const {
    return static_cast<int>(tasks_.size());
  }
  [[nodiscard]] int num_locations() const {
    return static_cast<int>(locations_.size());
  }
  [[nodiscard]] const std::vector<LocationDecl>& location_decls() const {
    return locations_;
  }
  [[nodiscard]] const std::vector<TaskDecl>& task_decls() const {
    return tasks_;
  }
  [[nodiscard]] const std::vector<InitHook>& init_hooks() const {
    return inits_;
  }
  [[nodiscard]] std::optional<place::Policy> policy() const {
    return policy_;
  }
  [[nodiscard]] const treematch::Options& treematch_options() const {
    return tm_opts_;
  }
  [[nodiscard]] std::uint64_t place_seed() const { return place_seed_; }
  [[nodiscard]] const std::optional<comm::CommMatrix>& placement_matrix()
      const {
    return place_matrix_;
  }
  [[nodiscard]] const place::ReplacementPolicy& replacement_policy() const {
    return replacement_;
  }

  /// The static communication matrix of the declaration: every pair of
  /// tasks sharing a location gets an affinity of the location's size —
  /// identical to Runtime::static_comm_matrix() on the built program.
  [[nodiscard]] comm::CommMatrix static_comm_matrix() const;

  /// Global priming order: indices (task, access) sorted by access rank,
  /// ties by declaration order. Backends register handles in exactly this
  /// order.
  [[nodiscard]] std::vector<std::pair<int, int>> prime_sequence() const;

  /// Structural checks an executable program must satisfy (bodies present,
  /// iteration counts sane). Throws ContractError.
  void validate_executable() const;

 private:
  friend class TaskBuilder;
  LocationId add_location(std::size_t bytes, std::size_t elem_size,
                          std::string name);

  std::vector<LocationDecl> locations_;
  std::vector<TaskDecl> tasks_;
  std::vector<InitHook> inits_;
  std::optional<place::Policy> policy_;
  std::optional<comm::CommMatrix> place_matrix_;
  std::optional<sync::WaitStrategy> wait_;
  std::optional<mem::MemoryPolicy> memory_;
  place::ReplacementPolicy replacement_;
  treematch::Options tm_opts_;
  std::uint64_t place_seed_ = 42;
  std::size_t next_seq_ = 0;
};

}  // namespace orwl
