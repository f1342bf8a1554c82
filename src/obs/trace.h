#pragma once
// Always-on runtime tracing: per-thread SPSC ring buffers of fixed-size
// binary events, drained post-run (or at any quiescent point) into a
// Chrome/Perfetto-compatible timeline (obs/export.h).
//
// Design constraints, in order:
//  * The DISABLED hot path is one relaxed load — tracing is compiled in by
//    default (ORWL_OBS_NO_TRACE compiles the hooks away entirely) but
//    gated by a process-global runtime flag, so the grant path of an
//    untraced run pays a single branch.
//  * Recording never blocks and never allocates after a thread's first
//    event: each thread owns a cache-line-padded ring of kRingCapacity
//    fixed-size events; on overflow the OLDEST events are overwritten and
//    counted (surfaced as the `trace.dropped` metric), so a slow reader
//    can never stall the runtime.
//  * Events self-describe their thread (dense index from
//    support/thread.h), so rings are plain storage and can be leased to a
//    new thread once their previous owner exits — total ring memory is
//    bounded by the peak LIVE thread count, not the historical one.
//
// Collection contract: collect()/reset() assume the producing threads
// have quiesced (joined, or parked at a barrier) — the same contract as
// sync::ShardedCounter reads. A concurrent collect is safe but may
// observe a torn tail, which the exporter's span sanitizer absorbs.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace orwl::obs {

/// What happened. Begin/End pairs become Chrome `B`/`E` spans; the rest
/// export as instant events. Keep to_string / span tables in trace.cpp in
/// sync when adding kinds.
enum class EventKind : std::uint8_t {
  AcquireBegin,   ///< Handle::acquire entered            (arg = handle id)
  AcquireEnd,     ///< grant observed, buffer returned    (arg = handle id)
  Grant,          ///< FIFO announced a grant             (arg = handle id)
  Release,        ///< lock given up (or renewed)         (arg = handle id)
  // Kept only because perfbench/ reads it; removed with ROADMAP item 1(b).
  EventPop,       ///< EventQueue::pop_all drained a batch (arg = batch size)
  EpochBegin,     ///< epoch boundary formed, hook starts (arg = epoch)
  EpochEnd,       ///< boundary released                  (arg = epoch)
  ReplaceBegin,   ///< re-placement evaluation starts     (arg = epoch)
  ReplaceEnd,     ///< re-placement done                  (arg = migrated)
  PageMove,       ///< location pages re-targeted         (arg = locations)
  ComputeBegin,   ///< sim: analytic segment starts       (arg = segment)
  ComputeEnd,     ///< sim: analytic segment ends         (arg = segment)
  RingPublish,    ///< ipc: message pushed into a shm ring (arg = msg kind)
  RingDrain,      ///< ipc: messages drained from a ring   (arg = count)
  GrantBatch,     ///< FIFO announced a shared-read run    (arg = run size)
  kCount,
};

[[nodiscard]] const char* to_string(EventKind k);
/// Chrome span name shared by a Begin/End pair ("acquire", "epoch", ...).
[[nodiscard]] const char* span_name(EventKind k);
[[nodiscard]] bool is_span_begin(EventKind k);
[[nodiscard]] bool is_span_end(EventKind k);
/// The Begin kind an End kind closes (End kinds only).
[[nodiscard]] EventKind begin_of(EventKind end);

/// One fixed-size binary trace record.
struct TraceEvent {
  std::uint64_t ts_ns = 0;  ///< process-wide monotonic clock
  std::uint64_t arg = 0;    ///< kind-specific payload
  std::int32_t tid = 0;     ///< dense thread index (or task id for sim)
  EventKind kind = EventKind::kCount;
};
static_assert(sizeof(TraceEvent) == 24, "keep trace records fixed-size");

// --- global on/off ---------------------------------------------------------

#ifndef ORWL_OBS_NO_TRACE
namespace detail {
/// Process-global runtime gate. Inline so the disabled hot path inlines to
/// one relaxed load + branch at every instrumentation point.
inline std::atomic<bool> g_trace_enabled{false};
/// Out-of-line slow path: stamp the clock and push into this thread's ring
/// (leasing one on the first event).
void record(EventKind kind, std::uint64_t arg) noexcept;
}  // namespace detail
#endif

[[nodiscard]] inline bool tracing_enabled() noexcept {
#ifdef ORWL_OBS_NO_TRACE
  return false;
#else
  // order: relaxed — the flag gates best-effort recording only; enable /
  // disable sit at run boundaries where thread create/join provide the
  // ordering that matters.
  return detail::g_trace_enabled.load(std::memory_order_relaxed);
#endif
}

/// Flip the runtime gate. Returns the previous value.
bool enable_tracing(bool on) noexcept;

/// Record one event. The whole disabled path is the inline flag check.
inline void trace(EventKind kind, std::uint64_t arg = 0) noexcept {
#ifdef ORWL_OBS_NO_TRACE
  (void)kind;
  (void)arg;
#else
  if (tracing_enabled()) detail::record(kind, arg);
#endif
}

// --- collection ------------------------------------------------------------

/// Events of one thread, in timestamp order.
struct TraceThread {
  std::int32_t tid = 0;
  std::string name;  ///< pthread name at first event ("w0", "w1", ...)
  std::vector<TraceEvent> events;
};

/// A drained trace: per-thread event lists plus the overwrite count.
struct TraceData {
  std::vector<TraceThread> threads;
  std::uint64_t dropped = 0;  ///< oldest events overwritten ring-wide
  [[nodiscard]] bool empty() const { return threads.empty(); }
  [[nodiscard]] std::size_t total_events() const {
    std::size_t n = 0;
    for (const TraceThread& t : threads) n += t.events.size();
    return n;
  }
};

/// Snapshot every ring, grouped by event tid and sorted by timestamp.
/// Also bumps the process-global `trace.dropped` counter by the newly
/// observed overwrites. Producers must be quiescent for an exact result.
[[nodiscard]] TraceData collect();

/// Clear every ring (events and drop counts). Producers must be
/// quiescent. Ring leases and thread names survive.
void reset();

/// Events currently buffered across all rings (tests/diagnostics).
[[nodiscard]] std::size_t buffered_events();

/// Ring capacity in events (power of two). Exposed for the wraparound
/// tests and the docs' overhead math.
[[nodiscard]] std::size_t ring_capacity();

}  // namespace orwl::obs
