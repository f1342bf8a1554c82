#pragma once
// Combiner: the lock-free serialization primitive behind the grant path.
//
// A flat-combining handoff: callers that mutated shared state announce
// work and, when no combiner is active, become the *combiner* — the
// single thread that processes all outstanding work. Losing the race is
// fine: announce and role-acquisition are ONE atomic RMW on a pending-
// operations counter, so the active combiner is guaranteed to observe
// every announcement before it gives the role up, and no announcement is
// ever lost. The result is mutual exclusion for the processing function
// without a mutex: no thread ever blocks (in the kernel or otherwise) to
// get the role, and the whole protocol is one RMW to enter plus one RMW
// to leave — the same locked-instruction budget as an uncontended mutex,
// with the loser path a single RMW.
//
// How the counter works (Vyukov-style combining counter): pending_ holds
// the number of announced-but-unaccounted operations. fetch_add(1)
// returning 0 means "no combiner was active — the role is mine"; anything
// else means the active combiner's closing fetch_sub will come AFTER our
// increment in the RMW total order, observe it, and process for us. The
// combiner loops: process(), then fetch_sub(handled); a non-zero result
// means more work arrived mid-round, so it processes again. Because RMWs
// on one variable are totally ordered and each reads the previous value,
// there is no store→load (Dekker) hazard anywhere — acq_rel suffices.
//
// Used by orwl::FifoQueue to serialize grant-frontier advancement; kept
// here because the shape is generic (any "multiple announcers, one
// processor at a time" structure can reuse it).

#include <atomic>
#include <cstdint>

namespace orwl::sync {

class Combiner {
 public:
  Combiner() = default;
  Combiner(const Combiner&) = delete;
  Combiner& operator=(const Combiner&) = delete;

  /// Announce one unit of work and process ALL outstanding work if this
  /// thread wins the combiner role. `process` may be invoked zero times
  /// (an active combiner will observe our announcement) or several times
  /// (work kept arriving while we combined). It runs mutually exclusive
  /// with every other `run` on this Combiner. `process` must handle all
  /// outstanding work each call (it is a "catch up completely" step, not
  /// a per-item callback).
  ///
  /// Exception-safe: if `process` throws, the pending counter is cleared
  /// before the exception propagates, so the queue is not wedged: the
  /// next announcement wins the role and catches up on anything the
  /// throwing round left behind.
  template <class F>
  void run(F&& process) {
    // The release half publishes the caller's preceding writes to the
    // combiner that observes this increment (RMWs extend the release
    // sequence); the acquire half makes the winner see every earlier
    // announcer's writes.
    // order: acq_rel — see above.
    if (pending_.fetch_add(1, std::memory_order_acq_rel) != 0)
      return;  // an active combiner's closing fetch_sub sees our add
    std::uint64_t mine = 1;
    for (;;) {
      try {
        process();
      } catch (...) {
        // Drop the role AND the pending count: leaving it non-zero would
        // make every future announcer think a combiner is active and
        // strand the queue. Unprocessed announcements are only triggers;
        // the next run's process() catches up globally.
        // order: acq_rel — role handoff, both directions (see run entry).
        pending_.exchange(0, std::memory_order_acq_rel);
        throw;
      }
      // Close the round: subtract what we accounted for; a non-zero
      // result is work announced mid-round (its release half reached us
      // through the RMW chain), so process again. Zero hands the role to
      // the next announcer's fetch_add.
      // order: acq_rel — round close / role handoff (see run entry).
      mine = pending_.fetch_sub(mine, std::memory_order_acq_rel) - mine;
      if (mine == 0) return;
    }
  }

 private:
  /// Announced-but-unaccounted operations; 0 = no combiner active.
  std::atomic<std::uint64_t> pending_{0};
};

}  // namespace orwl::sync
