#include "orwl/instrument.h"

#include "support/assert.h"
#include "support/thread.h"
#include "sync/mutex.h"

namespace orwl {

namespace {

/// The power of two >= `want`, doubling up from `have` (a power of two, or
/// 0 for none yet).
int grown(int have, int want) {
  int cap = have == 0 ? 1 : have;
  while (cap < want) cap <<= 1;
  return cap;
}

}  // namespace

Instrument::Instrument(int num_tasks, obs::Registry& registry)
    : read_grants_(registry.counter("orwl.grants.read")),
      write_grants_(registry.counter("orwl.grants.write")),
      order_(num_tasks) {}

bool Instrument::pristine() const {
  // order: relaxed — a construction-phase check, made on the thread that
  // builds the program; the flag carries no payload.
  return read_grants_.read() == 0 && write_grants_.read() == 0 &&
         !flows_recorded_.load(std::memory_order_relaxed);
}

void Instrument::resize(int num_tasks) {
  ORWL_CHECK_MSG(num_tasks >= order_,
                 "instrument cannot shrink below recorded tasks");
  // Construction-phase-only contract: growing the layout concurrently
  // with (or after) recording would race the flow shards and silently
  // drop edges.
  ORWL_ASSERT_MSG(pristine(),
                  "Instrument::resize after recording started; add tasks "
                  "before the run records grants or flows");
  order_ = num_tasks;
}

void Instrument::add_location(std::size_t bytes) {
  ORWL_ASSERT_MSG(pristine(),
                  "Instrument::add_location after recording started; add "
                  "locations before the run records grants or flows");
  locations_.push_back({});
  locations_.back().bytes = bytes;
}

void Instrument::add_handle(TaskId task, LocationId loc, AccessMode mode) {
  ORWL_CHECK_MSG(task >= 0 && task < order_, "unknown task " << task);
  ORWL_CHECK_MSG(loc >= 0 && static_cast<std::size_t>(loc) < locations_.size(),
                 "unknown location " << loc);
  ORWL_ASSERT_MSG(pristine(),
                  "Instrument::add_handle after recording started; add "
                  "handles before the run records grants or flows");
  LocationRec& l = locations_[static_cast<std::size_t>(loc)];
  const int column = l.handles++;
  int row = -1;
  if (mode == AccessMode::Write) {
    row = static_cast<int>(l.writers.size());
    l.writers.push_back(task);
  }
  const int columns = grown(l.columns, l.handles);
  const int rows =
      l.writers.empty() ? 0 : grown(l.rows, static_cast<int>(l.writers.size()));
  // Nothing is counted yet, so a grown table just takes fresh cells.
  if (rows > 0 && (columns != l.columns || rows != l.rows)) {
    l.base = cells_;
    cells_ += static_cast<std::size_t>(rows) * static_cast<std::size_t>(columns);
  }
  l.columns = columns;
  l.rows = rows;
  handles_.push_back({task, loc, column, row});
}

void Instrument::record_grant(AccessMode mode) {
  (mode == AccessMode::Read ? read_grants_ : write_grants_).add(1);
}

void Instrument::record_flow(HandleId from, HandleId to) {
  if (from < 0) return;
  const HandleRec& w = handles_[static_cast<std::size_t>(from)];
  const HandleRec& r = handles_[static_cast<std::size_t>(to)];
  const LocationRec& l = locations_[static_cast<std::size_t>(r.location)];
  if (w.task == r.task || l.bytes == 0) return;
  const std::size_t cell =
      l.base +
      static_cast<std::size_t>(w.row) * static_cast<std::size_t>(l.columns) +
      static_cast<std::size_t>(r.column);
  FlowShard& shard =
      shards_[static_cast<std::size_t>(current_thread_index()) &
              (kFlowShards - 1)];
  sync::LockGuard lock(shard.mu);
  if (!shard.counts) {
    shard.counts = std::make_unique<std::uint64_t[]>(cells_);
    // order: relaxed — see pristine().
    flows_recorded_.store(true, std::memory_order_relaxed);
  }
  ++shard.counts[cell];
}

comm::CommMatrix Instrument::flow_matrix() const {
  comm::CommMatrix total(order_);
  for (const FlowShard& s : shards_) {
    sync::LockGuard lock(s.mu);
    if (!s.counts) continue;
    for (const HandleRec& h : handles_) {
      const LocationRec& l = locations_[static_cast<std::size_t>(h.location)];
      for (std::size_t row = 0; row < l.writers.size(); ++row) {
        const std::uint64_t grants =
            s.counts[l.base + row * static_cast<std::size_t>(l.columns) +
                     static_cast<std::size_t>(h.column)];
        if (grants != 0)
          total.add(l.writers[row], h.task,
                    static_cast<double>(grants * l.bytes));
      }
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
