#include "orwl/backend.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "place/replace.h"
#include "support/assert.h"
#include "support/log.h"
#include "support/rng.h"
#include "support/time.h"

namespace orwl {

namespace {

/// Build the program into a runtime: locations, tasks whose bodies run the
/// per-iteration Step loop, and handles registered in the program's
/// canonical priming order.
void build_runtime(const Program& program, Runtime& rt) {
  program.validate_executable();

  for (const Program::LocationDecl& loc : program.location_decls())
    rt.add_location(loc.bytes, loc.name);

  // Slot tables are filled after handle registration below; the task
  // lambdas only dereference them once the runtime actually runs.
  std::vector<std::shared_ptr<std::vector<Step::Slot>>> tables;
  tables.reserve(program.task_decls().size());

  for (const Program::TaskDecl& decl : program.task_decls()) {
    auto table = std::make_shared<std::vector<Step::Slot>>();
    tables.push_back(table);
    rt.add_task(decl.name,
                [fn = decl.fn, rounds = decl.iterations,
                 table](TaskContext& ctx) {
                  // Copy: pending flags are per-execution state.
                  Step step(ctx.runtime(), ctx.id(), rounds, *table);
                  Runtime& runtime = ctx.runtime();
                  for (int r = 0; r < rounds; ++r) {
                    // Epoch boundary rendezvous (online re-placement);
                    // no-op unless an epoch hook is installed.
                    const int len = runtime.epoch_length();
                    if (len > 0 && r > 0 && r % len == 0)
                      runtime.epoch_arrive(ctx.id(), r);
                    step.set_round(r);
                    fn(step);
                  }
                  // Leave the epoch barrier population before draining:
                  // remaining tasks must not wait for this one at future
                  // boundaries.
                  runtime.epoch_retire(ctx.id());
                  step.drain();
                });
  }

  for (const auto& [task, access] : program.prime_sequence()) {
    const Program::AccessDecl& acc =
        program.task_decls()[static_cast<std::size_t>(task)]
            .accesses[static_cast<std::size_t>(access)];
    const HandleId h = rt.add_handle(task, acc.location, acc.mode,
                                     /*prime=*/true);
    tables[static_cast<std::size_t>(task)]->push_back(
        {acc.location, acc.mode, h, /*pending=*/true});
  }
}

void apply_inits(const Program& program, Runtime& rt) {
  for (const Program::InitHook& hook : program.init_hooks())
    hook.fn(rt.location_data(hook.location));
}

/// Whether a run copies its runtime's registry into RunReport::metrics:
/// only while tracing or detailed metrics are on, as every reader of that
/// field turns one of them on. The copy (every counter, two histograms
/// per handle) is about a fifth of a small run's set-up time.
bool report_metrics() {
  return obs::detailed_metrics_enabled() || obs::tracing_enabled();
}

place::Plan plan_for(const Program& program, const topo::Topology& topo,
                     const comm::CommMatrix& m) {
  // An explicit placement matrix (the measured-flow feedback loop) beats
  // the backend's default static matrix.
  const std::optional<comm::CommMatrix>& override = program.placement_matrix();
  if (override) {
    ORWL_CHECK_MSG(override->order() == program.num_tasks(),
                   "placement matrix order " << override->order()
                                             << " != task count "
                                             << program.num_tasks());
  }
  return place::compute_plan(*program.policy(), topo, override ? *override : m,
                             program.treematch_options(),
                             program.place_seed());
}

}  // namespace

// --------------------------------------------------------------------------
// RuntimeBackend
// --------------------------------------------------------------------------

RuntimeBackend::RuntimeBackend(RuntimeOptions opts)
    : opts_(opts), topo_(topo::Topology::host()) {}

RuntimeBackend::RuntimeBackend(RuntimeOptions opts, topo::Topology topo)
    : opts_(opts), topo_(std::move(topo)) {}

RunReport RuntimeBackend::run(const Program& program) {
  // A fresh trace window per run: whatever an earlier run left in the
  // rings is not this report's business. (Earlier runs' threads have
  // joined, so the producers are quiescent as reset() requires.)
  if (obs::tracing_enabled()) obs::reset();
  RuntimeOptions opts = opts_;
  // The program's wait-strategy and memory knobs beat the backend
  // defaults: the knobs travel with the declaration, so one Program can
  // be swept across strategies without reconstructing backends.
  if (program.wait_strategy()) opts.wait = *program.wait_strategy();
  if (program.memory_policy()) opts.memory = *program.memory_policy();
  rt_ = std::make_unique<Runtime>(opts);
  build_runtime(program, *rt_);
  apply_inits(program, *rt_);

  RunReport rep;
  rep.backend = "runtime";
  if (program.policy()) {
    rep.plan = plan_for(program, topo_, rt_->static_comm_matrix());
    place::apply_plan(rep.plan, topo_, *rt_);
    rep.placed = true;
  } else {
    // No placement plan: numa_interleave still applies (it needs no task
    // mapping), keeping the runtime in step with the sim's model;
    // numa_local has no planned writers to follow and stays first-touch.
    rt_->place_location_memory({}, topo_);
  }

  // Online re-placement: at every epoch boundary the hook reads the
  // Instrument's fresh flow window, asks the Replacer, and — when drift
  // warrants it — rebinds the live compute threads while they are parked
  // at the barrier. The run never stops.
  const place::ReplacementPolicy& rp = program.replacement_policy();
  std::optional<place::Replacer> replacer;
  place::Plan current = rep.plan;
  if (rp.enabled()) {
    ORWL_CHECK_MSG(program.policy(),
                   "online re-placement needs a placement policy — call "
                   "place() before replacement()");
    const std::optional<comm::CommMatrix>& basis = program.placement_matrix();
    replacer.emplace(rp, topo_, program.treematch_options(),
                     program.place_seed(),
                     basis ? *basis : rt_->static_comm_matrix());
    rt_->stats().begin_epoch();
    rt_->set_epoch_hook(
        rp.epoch_length, [this, &rep, &replacer, &current](int epoch,
                                                           int round) {
          obs::trace(obs::EventKind::ReplaceBegin,
                     static_cast<std::uint64_t>(epoch));
          WallTimer replace_timer;
          Instrument& stats = rt_->stats();
          const comm::CommMatrix window = stats.epoch_flow_matrix();
          stats.begin_epoch();
          const place::Replacer::Decision dec = replacer->evaluate(window);
          RunReport::EpochRecord rec;
          rec.epoch = epoch;
          rec.round = round;
          rec.drift = dec.drift;
          rec.replaced = dec.replaced;
          if (dec.replaced) {
            rec.migrated = place::count_migrations(current.compute_pu,
                                                   dec.plan.compute_pu);
            const auto pus = topo_.pus();
            for (TaskId t = 0; t < rt_->num_tasks(); ++t) {
              const auto ti = static_cast<std::size_t>(t);
              const int cpu = dec.plan.compute_pu[ti];
              if (cpu >= 0 &&
                  !rt_->rebind_compute_thread(
                      t, pus[static_cast<std::size_t>(cpu)]->cpuset))
                ++rec.rebind_failures;
            }
            if (rec.rebind_failures > 0) {
              ORWL_LOG(Warn)
                  << "epoch " << epoch << ": " << rec.rebind_failures
                  << " compute thread(s) could not be rebound; recorded "
                     "mapping is intent, not fact, for them";
            }
            // Location pages follow the migrated writers (numa policies;
            // no-op under heap). Safe here: the compute threads are
            // parked at the barrier, so nobody is touching the buffers.
            rec.moved_locations = rt_->place_location_memory(
                dec.plan.compute_pu, topo_);
            current = dec.plan;
            ++rep.replacements;
          }
          rec.replace_seconds = replace_timer.seconds();
          rec.compute_pu = current.compute_pu;
          obs::trace(obs::EventKind::ReplaceEnd,
                     static_cast<std::uint64_t>(rec.migrated));
          rep.epochs.push_back(std::move(rec));
        });
  }

  WallTimer timer;
  rt_->run();
  rep.seconds = timer.seconds();
  rep.grants = rt_->stats().read_grants() + rt_->stats().write_grants();
  if (report_metrics()) rep.metrics = rt_->metrics().snapshot();
  if (obs::tracing_enabled()) rep.trace = obs::collect();
  return rep;
}

std::vector<std::byte> RuntimeBackend::fetch_bytes(LocationId loc) {
  ORWL_CHECK_MSG(rt_ != nullptr, "fetch before run()");
  const std::span<std::byte> data = rt_->location_data(loc);
  return {data.begin(), data.end()};
}

Runtime& RuntimeBackend::runtime() {
  ORWL_CHECK_MSG(rt_ != nullptr, "runtime() before run()");
  return *rt_;
}

// --------------------------------------------------------------------------
// SimBackend
// --------------------------------------------------------------------------

SimBackend::SimBackend(topo::Topology topo)
    : topo_(std::move(topo)), cost_(sim::LinkCost::defaults_for(topo_)) {}

SimBackend::SimBackend(topo::Topology topo, sim::LinkCost cost,
                       SimBackendOptions opts)
    : topo_(std::move(topo)), cost_(std::move(cost)), opts_(opts) {}

namespace {

/// An exchange edge annotated with the rounds in which it is active —
/// the intersection of the two declared access windows, clipped to the
/// run length. Phase-stationary programs get [0, iterations) everywhere.
struct WindowedEdge {
  int a = 0;
  int b = 0;
  double bytes = 0.0;  ///< per active round
  int from = 0;
  int until = 0;  ///< exclusive
};

int window_overlap(const WindowedEdge& e, int r0, int r1) {
  return std::max(0, std::min(e.until, r1) - std::max(e.from, r0));
}

/// One declared access's active window, clipped to the run length.
struct AccessWindow {
  int from = 0;
  int until = 0;  ///< exclusive
};

struct DerivedLoad {
  sim::Workload base;  ///< threads, sync model, iterations; edges empty
  std::vector<WindowedEdge> edges;
  /// Per task: the active windows of its declared accesses — the source
  /// of per-segment acquire counts (lock-cost parity with the runtime,
  /// which only acquires phase-active handles).
  std::vector<std::vector<AccessWindow>> access_windows;
  /// Modelled grand total of lock acquisitions over the whole run.
  std::uint64_t total_grants = 0;
};

DerivedLoad derive_load(const Program& program) {
  const auto& tasks = program.task_decls();
  const auto& locs = program.location_decls();

  DerivedLoad out;
  sim::Workload& load = out.base;
  load.sync = sim::SyncModel::OrwlEvents;
  // Only a program that names a non-block strategy is charged grants
  // without the futex park/wake pair (sim::Workload::spin_waits). An unset
  // strategy is charged as block on purpose, although the runtime default
  // spins first: the paper-calibrated LinkCost assumes a blocking grant,
  // and predictions for programs without a strategy stay as recorded.
  if (program.wait_strategy())
    load.spin_waits = program.wait_strategy()->mode != sync::WaitMode::Block;
  load.threads.resize(tasks.size());
  load.iterations = 1;
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    sim::SimThread& th = load.threads[t];
    th.flops = tasks[t].flops;
    th.mem_bytes = tasks[t].mem_bytes;
    load.iterations = std::max(load.iterations, tasks[t].iterations);
  }

  out.access_windows.resize(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (const Program::AccessDecl& acc : tasks[t].accesses) {
      const int until = acc.until_round < 0
                            ? load.iterations
                            : std::min(acc.until_round, load.iterations);
      if (until > acc.from_round)
        out.access_windows[t].push_back({acc.from_round, until});
      // Grants clip to the owning task's iteration count (matching the
      // pre-window accounting for stationary programs).
      const int grant_until = std::min(
          acc.until_round < 0 ? tasks[t].iterations : acc.until_round,
          tasks[t].iterations);
      if (grant_until > acc.from_round)
        out.total_grants +=
            static_cast<std::uint64_t>(grant_until - acc.from_round);
    }
    // The whole-run average acquire count per iteration (exact declared
    // count for stationary programs).
    double active = 0.0;
    for (const AccessWindow& w : out.access_windows[t])
      active += w.until - w.from;
    load.threads[t].acquires = static_cast<int>(
        std::lround(active / load.iterations));
  }

  // Exchange edges: for every location, each (writer, reader) task pair
  // moves the smaller of the two declared touch extents (a frontier op
  // reads a whole block but only ships one face), during the rounds where
  // both accesses are active.
  struct Party {
    int task;
    double bytes;
    int from;
    int until;
  };
  std::vector<std::vector<Party>> writers(locs.size()), readers(locs.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (const Program::AccessDecl& acc : tasks[t].accesses) {
      const auto li = static_cast<std::size_t>(acc.location);
      const double bytes = static_cast<double>(
          acc.touch_bytes > 0 ? acc.touch_bytes : locs[li].bytes);
      const int until = acc.until_round < 0 ? load.iterations
                                            : std::min(acc.until_round,
                                                       load.iterations);
      auto& side = acc.mode == AccessMode::Write ? writers[li] : readers[li];
      side.push_back({static_cast<int>(t), bytes, acc.from_round, until});
    }
  }
  for (std::size_t li = 0; li < locs.size(); ++li)
    for (const Party& w : writers[li])
      for (const Party& r : readers[li]) {
        if (w.task == r.task) continue;
        const int from = std::max(w.from, r.from);
        const int until = std::min(w.until, r.until);
        if (from >= until) continue;
        out.edges.push_back(
            {w.task, r.task, std::min(w.bytes, r.bytes), from, until});
      }
  return out;
}

/// The analytic flow matrix of the window [r0, r1): what the Instrument
/// would have measured there. Fed to the Replacer for backend parity.
comm::CommMatrix window_matrix(const DerivedLoad& load, int num_tasks,
                               int r0, int r1) {
  comm::CommMatrix m(num_tasks);
  for (const WindowedEdge& e : load.edges) {
    const int rounds = window_overlap(e, r0, r1);
    if (rounds > 0) m.add(e.a, e.b, e.bytes * rounds);
  }
  return m;
}

/// Edges of one simulated segment [r0, r1): per-round bytes averaged over
/// the segment (an edge fully active in the segment keeps its bytes; the
/// segment boundaries make partial overlap rare).
std::vector<sim::Edge> segment_edges(const DerivedLoad& load, int r0,
                                     int r1) {
  std::vector<sim::Edge> edges;
  for (const WindowedEdge& e : load.edges) {
    const int rounds = window_overlap(e, r0, r1);
    if (rounds <= 0) continue;
    edges.push_back({e.a, e.b, e.bytes * rounds / (r1 - r0)});
  }
  return edges;
}

/// Per-thread acquire counts for a segment starting at r0. Segments never
/// span an access-window boundary, so activity at r0 holds throughout.
void apply_segment_acquires(const DerivedLoad& load, int r0,
                            sim::Workload& seg) {
  for (std::size_t t = 0; t < seg.threads.size(); ++t) {
    int active = 0;
    for (const AccessWindow& w : load.access_windows[t])
      if (w.from <= r0 && r0 < w.until) ++active;
    seg.threads[t].acquires = active;
  }
}

}  // namespace

sim::Workload SimBackend::workload(const Program& program) const {
  DerivedLoad derived = derive_load(program);
  derived.base.edges =
      segment_edges(derived, 0, derived.base.iterations);
  return derived.base;
}

RunReport SimBackend::run(const Program& program) {
  ORWL_CHECK_MSG(program.num_tasks() > 0, "program has no tasks");
  const DerivedLoad derived = derive_load(program);
  const int n = program.num_tasks();
  const int npus = topo_.num_pus();
  const int rounds = derived.base.iterations;

  RunReport rep;
  rep.backend = "sim";

  sim::Placement placement;
  if (program.policy()) {
    rep.plan = plan_for(program, topo_, program.static_comm_matrix());
    rep.placed = true;
    placement.compute_pu = rep.plan.compute_pu;
    placement.control_pu = rep.plan.control_pu;
  } else {
    placement.compute_pu.assign(static_cast<std::size_t>(n), -1);
    placement.control_pu.assign(static_cast<std::size_t>(n), -1);
  }
  // Location-memory policy (mirrors RuntimeOptions::memory). Heap keeps
  // the historical model below untouched, so heap predictions stay
  // bit-identical; numa_local additionally moves data homes with epoch
  // migrations (pages follow the writer, at a page-move charge); and
  // numa_interleave spreads every working set across the domains.
  const mem::MemoryPolicy mempol =
      program.memory_policy().value_or(mem::MemoryPolicy::Heap);
  if (mempol == mem::MemoryPolicy::NumaInterleave)
    placement.data_interleaved.assign(static_cast<std::size_t>(n), 1);

  // Bound tasks: an unmanaged control thread of the paper's runtime rides
  // on the compute PU and the owner first-touches its own data.
  // Unbound tasks: the control path stays unmanaged and first touch lands
  // wherever the OS started the thread (seeded lottery).
  placement.data_home_pu.resize(static_cast<std::size_t>(n));
  Xoshiro256 rng(opts_.seed);
  for (int t = 0; t < n; ++t) {
    const auto ti = static_cast<std::size_t>(t);
    const int cpu = placement.compute_pu[ti];
    if (cpu >= 0) {
      if (placement.control_pu[ti] < 0) placement.control_pu[ti] = cpu;
      placement.data_home_pu[ti] = cpu;
    } else {
      placement.data_home_pu[ti] = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(npus)));
    }
  }

  // Bytes and location count each task "owns" — locations whose planned
  // writer it is (first Write access in priming order). What numa_local
  // migrates when the task's compute PU changes; only that configuration
  // pays the scan.
  std::vector<double> owned_bytes(static_cast<std::size_t>(n), 0.0);
  std::vector<int> owned_locs(static_cast<std::size_t>(n), 0);
  if (mempol == mem::MemoryPolicy::NumaLocal &&
      program.replacement_policy().enabled()) {
    std::vector<char> claimed(program.location_decls().size(), 0);
    for (const auto& [task, access] : program.prime_sequence()) {
      const Program::AccessDecl& acc =
          program.task_decls()[static_cast<std::size_t>(task)]
              .accesses[static_cast<std::size_t>(access)];
      if (acc.mode != AccessMode::Write) continue;
      const auto li = static_cast<std::size_t>(acc.location);
      if (claimed[li]) continue;
      claimed[li] = 1;
      const auto ti = static_cast<std::size_t>(task);
      owned_bytes[ti] += static_cast<double>(
          program.location_decls()[li].bytes);
      if (program.location_decls()[li].bytes > 0) ++owned_locs[ti];
    }
  }

  // Online re-placement, mirrored analytically: the same Replacer the
  // RuntimeBackend drives, fed the per-window matrices of the declared
  // access schedule, with LinkCost::migration_cost charged per migrated
  // thread. Under the heap policy data homes do not move (first touch),
  // so post-migration remote-memory streams are charged naturally in
  // later segments; under numa_local the homes follow the migrated
  // writers at a page-move charge (below).
  const place::ReplacementPolicy& rp = program.replacement_policy();
  std::optional<place::Replacer> replacer;
  if (rp.enabled()) {
    ORWL_CHECK_MSG(program.policy(),
                   "online re-placement needs a placement policy — call "
                   "place() before replacement()");
    const std::optional<comm::CommMatrix>& basis = program.placement_matrix();
    replacer.emplace(rp, topo_, program.treematch_options(),
                     program.place_seed(),
                     basis ? *basis : program.static_comm_matrix());
  }

  // Segment the run at access-window boundaries (so each phase is costed
  // with its true edges and acquire counts, not a run-wide average) and at
  // epoch boundaries where a re-placement actually fired (so the new
  // mapping takes effect). Epoch boundaries that only *evaluate* do not
  // split the simulation — a stationary program with replacement enabled
  // therefore predicts bit-identically to its static twin, unbound-thread
  // scheduler lottery included.
  std::vector<int> phase_cuts;
  for (const std::vector<AccessWindow>& windows : derived.access_windows)
    for (const AccessWindow& w : windows) {
      if (w.from > 0 && w.from < rounds) phase_cuts.push_back(w.from);
      if (w.until > 0 && w.until < rounds) phase_cuts.push_back(w.until);
    }
  std::vector<int> points = phase_cuts;
  points.push_back(rounds);
  if (rp.enabled())
    for (int r = rp.epoch_length; r < rounds; r += rp.epoch_length)
      points.push_back(r);
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());
  std::sort(phase_cuts.begin(), phase_cuts.end());

  last_ = sim::Report{};
  int seg_start = 0;
  // Synthetic spans from the analytic timeline (only while tracing is on):
  // every costed segment becomes a `compute` span on each task's row, and
  // each fired re-placement becomes a `replace` span on an extra "sim"
  // row — so a predicted run opens next to a real one in Perfetto.
  const bool synth = obs::tracing_enabled();
  std::vector<std::vector<obs::TraceEvent>> synth_rows;
  if (synth)
    synth_rows.resize(static_cast<std::size_t>(n) + 1);  // [n] = sim row
  double sim_clock = 0.0;  // cumulative predicted seconds
  int seg_index = 0;
  const auto synth_span = [&](std::size_t row, obs::EventKind begin,
                              obs::EventKind end, double t0, double t1,
                              std::uint64_t arg) {
    const auto ns = [](double s) {
      return static_cast<std::uint64_t>(s * 1e9);
    };
    synth_rows[row].push_back(
        {ns(t0), arg, static_cast<std::int32_t>(row), begin});
    synth_rows[row].push_back(
        {ns(t1), arg, static_cast<std::int32_t>(row), end});
  };
  const auto flush_segment = [&](int r) {
    if (r <= seg_start) return;
    sim::Workload seg = derived.base;
    seg.iterations = r - seg_start;
    seg.edges = segment_edges(derived, seg_start, r);
    apply_segment_acquires(derived, seg_start, seg);
    const sim::Report sr =
        sim::simulate(topo_, cost_, seg, placement, opts_.seed);
    last_.total_seconds += sr.total_seconds;
    last_.compute_seconds += sr.compute_seconds;
    last_.memory_seconds += sr.memory_seconds;
    last_.comm_seconds += sr.comm_seconds;
    last_.sync_seconds += sr.sync_seconds;
    last_.lock_seconds += sr.lock_seconds;
    last_.max_pu_load = std::max(last_.max_pu_load, sr.max_pu_load);
    if (synth) {
      const double t1 = sim_clock + sr.total_seconds;
      for (int t = 0; t < n; ++t)
        synth_span(static_cast<std::size_t>(t), obs::EventKind::ComputeBegin,
                   obs::EventKind::ComputeEnd, sim_clock, t1,
                   static_cast<std::uint64_t>(seg_index));
      ++seg_index;
    }
    sim_clock += sr.total_seconds;
    seg_start = r;
  };

  for (const int r : points) {
    const bool is_epoch =
        replacer && r < rounds && r % rp.epoch_length == 0;
    std::optional<place::Replacer::Decision> dec;
    if (is_epoch)
      dec = replacer->evaluate(
          window_matrix(derived, n, r - rp.epoch_length, r));
    // Simulate up to r with the placement in force there — before any
    // re-placement applies — when the edge set changes, a re-placement
    // fired, or the run ends.
    if (std::binary_search(phase_cuts.begin(), phase_cuts.end(), r) ||
        (dec && dec->replaced) || r == rounds)
      flush_segment(r);
    if (!dec) continue;
    RunReport::EpochRecord rec;
    rec.epoch = r / rp.epoch_length;
    rec.round = r;
    rec.drift = dec->drift;
    rec.replaced = dec->replaced;
    if (dec->replaced) {
      rec.migrated = place::count_migrations(placement.compute_pu,
                                             dec->plan.compute_pu);
      // numa_local: pages follow the migrated writers — the data home
      // moves with the thread and the moved bytes pay the page-move
      // bandwidth once. Heap homes stay put (first touch).
      double moved_bytes = 0.0;
      if (mempol == mem::MemoryPolicy::NumaLocal) {
        for (int t = 0; t < n; ++t) {
          const auto ti = static_cast<std::size_t>(t);
          const int to = dec->plan.compute_pu[ti];
          if (to < 0 || to == placement.compute_pu[ti]) continue;
          const int from_home = std::max(placement.data_home_pu[ti], 0);
          // Pages (and with them the data home) move only when the
          // writer leaves its memory domain — a same-node rebind gives
          // mbind nothing to do and the pages stay where they are
          // (mirrors Runtime::place_location_memory).
          if (sim::memory_domain_of(topo_, from_home) !=
              sim::memory_domain_of(topo_, to)) {
            placement.data_home_pu[ti] = to;
            moved_bytes += owned_bytes[ti];
            rec.moved_locations += owned_locs[ti];
          }
        }
      }
      placement.compute_pu = dec->plan.compute_pu;
      placement.control_pu = dec->plan.control_pu;
      for (int t = 0; t < n; ++t) {
        const auto ti = static_cast<std::size_t>(t);
        if (placement.compute_pu[ti] >= 0 && placement.control_pu[ti] < 0)
          placement.control_pu[ti] = placement.compute_pu[ti];
      }
      rec.replace_seconds = rec.migrated * cost_.migration_cost +
                            moved_bytes / cost_.page_move_bandwidth;
      last_.total_seconds += rec.replace_seconds;
      if (synth) {
        synth_span(static_cast<std::size_t>(n), obs::EventKind::ReplaceBegin,
                   obs::EventKind::ReplaceEnd, sim_clock,
                   sim_clock + rec.replace_seconds,
                   static_cast<std::uint64_t>(rec.migrated));
        if (rec.moved_locations > 0)
          synth_rows[static_cast<std::size_t>(n)].push_back(
              {static_cast<std::uint64_t>(sim_clock * 1e9),
               static_cast<std::uint64_t>(rec.moved_locations),
               static_cast<std::int32_t>(n), obs::EventKind::PageMove});
      }
      sim_clock += rec.replace_seconds;
      ++rep.replacements;
    }
    rec.compute_pu = placement.compute_pu;
    rep.epochs.push_back(std::move(rec));
  }
  flush_segment(rounds);
  rep.sim = last_;
  rep.seconds = last_.total_seconds;
  rep.grants = derived.total_grants;

  if (synth) {
    for (std::size_t row = 0; row < synth_rows.size(); ++row) {
      if (synth_rows[row].empty()) continue;
      obs::TraceThread tt;
      tt.tid = static_cast<std::int32_t>(row);
      tt.name = row < static_cast<std::size_t>(n)
                    ? "sim:" + program.task_decls()[row].name
                    : "sim:runtime";
      tt.events = std::move(synth_rows[row]);
      rep.trace.threads.push_back(std::move(tt));
    }
  }

  if (opts_.emulate) {
    emu_rt_ = std::make_unique<Runtime>();
    build_runtime(program, *emu_rt_);
    apply_inits(program, *emu_rt_);
    emu_rt_->run();
    if (report_metrics()) rep.metrics = emu_rt_->metrics().snapshot();
  } else {
    emu_rt_.reset();
  }
  return rep;
}

Runtime& SimBackend::emulated_runtime() {
  ORWL_CHECK_MSG(emu_rt_ != nullptr,
                 "emulated_runtime() needs SimBackendOptions::emulate and a "
                 "prior run()");
  return *emu_rt_;
}

std::vector<std::byte> SimBackend::fetch_bytes(LocationId loc) {
  ORWL_CHECK_MSG(emu_rt_ != nullptr,
                 "SimBackend::fetch needs SimBackendOptions::emulate and a "
                 "prior run()");
  const std::span<std::byte> data = emu_rt_->location_data(loc);
  return {data.begin(), data.end()};
}

}  // namespace orwl
