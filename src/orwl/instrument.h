#pragma once
// Runtime instrumentation: grant counters and the measured
// communication-flow matrix the placement module feeds to Algorithm 1.
// "We exploit application information as it is gathered from ORWL runtime
// to construct a weighted matrix that expresses the communication volume
// between threads" (paper, Sec. II).
//
// The write paths run on the grant hot path (with a location queue lock
// held), so there is no global instrument mutex: the grant counters are
// cache-line-padded sharded counters (sync/sharded_counter.h) and the flow
// matrix is striped into per-thread shards, each with its own (practically
// uncontended) lock. Readers — reports, epoch boundaries — flush by
// summing the shards; they are rare and off the hot path.

#include <cstdint>

#include "comm/comm_matrix.h"
#include "obs/metrics.h"
#include "orwl/fwd.h"
#include "support/thread_annotations.h"
#include "sync/mutex.h"
#include "sync/sharded_counter.h"

namespace orwl {

class Instrument {
 public:
  /// The grant counters live in `registry` ("orwl.grants.read",
  /// "orwl.grants.write") so reports and the metrics dump see them
  /// alongside the rest of the runtime's metrics. The registry must
  /// outlive the Instrument (the Runtime owns both, registry first).
  Instrument(int num_tasks, obs::Registry& registry);

  /// Grow the matrix when tasks are added after construction.
  /// Construction-phase only (enforced): must not race record_flow, so it
  /// asserts that nothing has been recorded yet.
  void resize(int num_tasks);

  void record_grant(AccessMode mode);

  /// Account `bytes` flowing from task `from` (producer) to `to`
  /// (consumer). Ignored when from < 0 or from == to.
  void record_flow(TaskId from, TaskId to, std::size_t bytes);

  [[nodiscard]] std::uint64_t read_grants() const {
    return read_grants_.read();
  }
  [[nodiscard]] std::uint64_t write_grants() const {
    return write_grants_.read();
  }

  /// True until the first record_grant/record_flow — the
  /// construction-phase window in which resize() is legal.
  [[nodiscard]] bool pristine() const;

  /// Symmetric matrix of bytes exchanged between tasks so far (the flush:
  /// sums the per-thread shards).
  [[nodiscard]] comm::CommMatrix flow_matrix() const;

  // --- epoch windows (online re-placement, place/replace.h) ---------------
  //
  // An epoch is a window of iterations; the runtime marks its start with
  // begin_epoch() and reads the flows accumulated *within* the window with
  // epoch_flow_matrix(). The cumulative flow_matrix() is unaffected.

  /// Mark the start of a new epoch window: subsequent epoch_flow_matrix()
  /// calls report only flows recorded after this point.
  void begin_epoch();

  /// Flows recorded since the last begin_epoch() (or construction).
  [[nodiscard]] comm::CommMatrix epoch_flow_matrix() const;

 private:
  static constexpr int kFlowShards = 8;  // power of two (mask indexing)

  struct alignas(sync::kCacheLine) FlowShard {
    mutable sync::Mutex mu;
    comm::CommMatrix flows ORWL_GUARDED_BY(mu);
  };

  obs::Counter& read_grants_;   // owned by the registry (see ctor note)
  obs::Counter& write_grants_;
  FlowShard shards_[kFlowShards];
  int order_ = 0;  ///< construction-phase only (resize before run)

  mutable sync::Mutex epoch_mu_;
  /// flow_matrix() snapshot at begin_epoch().
  comm::CommMatrix epoch_base_ ORWL_GUARDED_BY(epoch_mu_);
};

}  // namespace orwl
