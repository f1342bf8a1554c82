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
// counts are striped into per-thread shards, each with its own (practically
// uncontended) lock. Readers — reports, epoch boundaries — flush by
// summing the shards; they are rare and off the hot path.
//
// A flow goes from a location's Write handle to a handle of the same
// location, so each location lays out one table of counts, a row per
// Write handle and a column per handle; a shard holds one count per cell
// of every table. The layout grows with the program's handles, not with
// the square of its tasks, and a shard allocates its counts at its first
// flow.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

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

  // --- construction phase ---------------------------------------------------
  //
  // resize(), add_location() and add_handle() must not race record_flow:
  // each asserts that nothing has been recorded yet (pristine()). Each
  // takes constant amortized time.

  /// Set the flow matrix's order, the task count (it may only grow).
  void resize(int num_tasks);

  /// Register the next location (ids count up from 0), of `bytes` bytes.
  void add_location(std::size_t bytes);

  /// Register the next handle (ids count up from 0): task `task`'s access
  /// to location `loc`.
  void add_handle(TaskId task, LocationId loc, AccessMode mode);

  /// Count cells laid out so far: what each shard allocates at its first
  /// flow.
  [[nodiscard]] std::size_t cells() const { return cells_; }

  // --- recording (grant path) -----------------------------------------------

  void record_grant(AccessMode mode);

  /// Account a grant to handle `to` of the bytes its location last had
  /// written through `from`, a Write handle of the same location. Ignored
  /// when from < 0 (no local producer), when both handles belong to one
  /// task, or for an empty location.
  void record_flow(HandleId from, HandleId to);

  [[nodiscard]] std::uint64_t read_grants() const {
    return read_grants_.read();
  }
  [[nodiscard]] std::uint64_t write_grants() const {
    return write_grants_.read();
  }

  /// True until the first record_grant/record_flow — the construction
  /// phase.
  [[nodiscard]] bool pristine() const;

  /// Symmetric matrix of bytes exchanged between tasks so far, of the
  /// task-count order (the flush: sums the per-thread shards).
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

  struct HandleRec {
    TaskId task;
    LocationId location;
    int column;  ///< among the location's handles, in registration order
    int row;     ///< among its Write handles; -1 for a Read handle
  };

  /// A location's table: cell base + row * columns + column counts the
  /// grants to handle `column` of bytes written through Write handle
  /// `row`. A table that outgrows its rows or columns moves to the end of
  /// the layout with both doubled.
  struct LocationRec {
    std::size_t bytes = 0;
    std::size_t base = 0;
    int columns = 0;  ///< a power of two >= the location's handles
    int rows = 0;     ///< a power of two >= its Write handles; 0 if none
    int handles = 0;
    std::vector<TaskId> writers;  ///< task of each row
  };

  struct alignas(sync::kCacheLine) FlowShard {
    mutable sync::Mutex mu;
    /// cells_ counts, allocated at the shard's first flow.
    std::unique_ptr<std::uint64_t[]> counts ORWL_GUARDED_BY(mu);
  };

  obs::Counter& read_grants_;   // owned by the registry (see ctor note)
  obs::Counter& write_grants_;
  FlowShard shards_[kFlowShards];
  /// Set by the first shard to allocate its counts; pristine() reads it.
  std::atomic<bool> flows_recorded_{false};
  // Layout: construction phase only (add_location/add_handle/resize).
  int order_ = 0;          ///< task count
  std::size_t cells_ = 0;  ///< cells laid out so far
  std::vector<HandleRec> handles_;
  std::vector<LocationRec> locations_;

  mutable sync::Mutex epoch_mu_;
  /// flow_matrix() snapshot at begin_epoch().
  comm::CommMatrix epoch_base_ ORWL_GUARDED_BY(epoch_mu_);
};

}  // namespace orwl
