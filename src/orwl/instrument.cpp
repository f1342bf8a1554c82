#include "orwl/instrument.h"

#include "support/assert.h"
#include "support/thread.h"
#include "sync/mutex.h"

namespace orwl {

Instrument::Instrument(int num_tasks, obs::Registry& registry)
    : read_grants_(registry.counter("orwl.grants.read")),
      write_grants_(registry.counter("orwl.grants.write")),
      order_(num_tasks) {
  for (FlowShard& s : shards_) s.flows.resize(num_tasks);
}

bool Instrument::pristine() const {
  if (read_grants_.read() != 0 || write_grants_.read() != 0) return false;
  for (const FlowShard& s : shards_) {
    sync::LockGuard lock(s.mu);
    if (s.flows.total_volume() != 0.0) return false;
  }
  return true;
}

void Instrument::resize(int num_tasks) {
  ORWL_CHECK_MSG(num_tasks >= order_,
                 "instrument cannot shrink below recorded tasks");
  // Construction-phase-only contract: a resize concurrent with (or after)
  // recording would race the flow shards and silently drop edges.
  ORWL_ASSERT_MSG(pristine(),
                  "Instrument::resize after recording started; add tasks "
                  "before the run records grants or flows");
  order_ = num_tasks;
  for (FlowShard& s : shards_) {
    sync::LockGuard lock(s.mu);
    s.flows.resize(num_tasks);
  }
}

void Instrument::record_grant(AccessMode mode) {
  (mode == AccessMode::Read ? read_grants_ : write_grants_).add(1);
}

void Instrument::record_flow(TaskId from, TaskId to, std::size_t bytes) {
  if (from < 0 || to < 0 || from == to || bytes == 0) return;
  FlowShard& shard =
      shards_[static_cast<std::size_t>(current_thread_index()) &
              (kFlowShards - 1)];
  sync::LockGuard lock(shard.mu);
  if (from >= shard.flows.order() || to >= shard.flows.order()) return;
  shard.flows.add(from, to, static_cast<double>(bytes));
}

comm::CommMatrix Instrument::flow_matrix() const {
  comm::CommMatrix total;
  for (const FlowShard& s : shards_) {
    sync::LockGuard lock(s.mu);
    if (total.order() < s.flows.order()) total.resize(s.flows.order());
    for (int i = 0; i < s.flows.order(); ++i)
      for (int j = i + 1; j < s.flows.order(); ++j) {
        const double v = s.flows.at(i, j);
        if (v != 0.0) total.add(i, j, v);
      }
  }
  return total;
}

void Instrument::begin_epoch() {
  comm::CommMatrix snapshot = flow_matrix();
  sync::LockGuard lock(epoch_mu_);
  epoch_base_ = std::move(snapshot);
}

comm::CommMatrix Instrument::epoch_flow_matrix() const {
  const comm::CommMatrix now = flow_matrix();
  sync::LockGuard lock(epoch_mu_);
  comm::CommMatrix delta(now.order());
  for (int i = 0; i < now.order(); ++i) {
    for (int j = i + 1; j < now.order(); ++j) {
      const double base = i < epoch_base_.order() && j < epoch_base_.order()
                              ? epoch_base_.at(i, j)
                              : 0.0;
      const double d = now.at(i, j) - base;
      if (d > 0.0) delta.set(i, j, d);
    }
  }
  return delta;
}

}  // namespace orwl
