#include "orwl/program.h"

#include <algorithm>

#include "orwl/backend.h"

namespace orwl {

TaskBuilder Program::task(std::string name) {
  const TaskId id = static_cast<TaskId>(tasks_.size());
  TaskDecl decl;
  decl.name = name.empty() ? "task" + std::to_string(id) : std::move(name);
  tasks_.push_back(std::move(decl));
  return TaskBuilder(*this, id);
}

LocationId Program::add_location(std::size_t bytes, std::size_t elem_size,
                                 std::string name) {
  const LocationId id = static_cast<LocationId>(locations_.size());
  if (name.empty()) name = "loc" + std::to_string(id);
  locations_.push_back({std::move(name), bytes, elem_size});
  return id;
}

TaskBuilder& TaskBuilder::iterations(int n) {
  ORWL_CHECK_MSG(n >= 0, "negative iteration count " << n);
  program_->tasks_[static_cast<std::size_t>(task_)].iterations = n;
  return *this;
}

TaskBuilder& TaskBuilder::cost(double flops, double mem_bytes) {
  ORWL_CHECK_MSG(flops >= 0.0 && mem_bytes >= 0.0, "negative cost");
  Program::TaskDecl& decl = program_->tasks_[static_cast<std::size_t>(task_)];
  decl.flops = flops;
  decl.mem_bytes = mem_bytes;
  return *this;
}

TaskBuilder& TaskBuilder::body(StepFn fn) {
  ORWL_CHECK_MSG(fn != nullptr, "task body must be callable");
  program_->tasks_[static_cast<std::size_t>(task_)].fn = std::move(fn);
  return *this;
}

void TaskBuilder::declare(LocationId loc, AccessMode mode, AccessOpts opts) {
  ORWL_CHECK_MSG(loc >= 0 && loc < program_->num_locations(),
                 "unknown location " << loc);
  Program::TaskDecl& decl = program_->tasks_[static_cast<std::size_t>(task_)];
  for (const Program::AccessDecl& a : decl.accesses)
    ORWL_CHECK_MSG(!(a.location == loc && a.mode == mode),
                   "task '" << decl.name << "' declares " << to_string(mode)
                            << " access to location " << loc << " twice");
  const std::size_t loc_bytes =
      program_->locations_[static_cast<std::size_t>(loc)].bytes;
  ORWL_CHECK_MSG(opts.touch_bytes <= loc_bytes,
                 "touch_bytes " << opts.touch_bytes
                                << " exceeds location size " << loc_bytes);
  ORWL_CHECK_MSG(opts.from_round >= 0,
                 "negative from_round " << opts.from_round);
  ORWL_CHECK_MSG(opts.until_round == -1 || opts.until_round > opts.from_round,
                 "empty access window [" << opts.from_round << ", "
                                         << opts.until_round << ")");
  decl.accesses.push_back({loc, mode, opts.rank, opts.touch_bytes,
                           program_->next_seq_++, opts.from_round,
                           opts.until_round});
}

comm::CommMatrix Program::static_comm_matrix() const {
  std::vector<std::size_t> bytes;
  bytes.reserve(locations_.size());
  for (const LocationDecl& loc : locations_) bytes.push_back(loc.bytes);
  std::vector<std::pair<int, int>> accesses;
  for (TaskId t = 0; t < num_tasks(); ++t)
    for (const AccessDecl& a : tasks_[static_cast<std::size_t>(t)].accesses)
      accesses.emplace_back(t, a.location);
  return comm::sharing_matrix(num_tasks(), bytes, accesses);
}

std::vector<std::pair<int, int>> Program::prime_sequence() const {
  struct Key {
    int rank;
    std::size_t seq;
    int task;
    int access;
  };
  std::vector<Key> keys;
  for (int t = 0; t < num_tasks(); ++t) {
    const TaskDecl& decl = tasks_[static_cast<std::size_t>(t)];
    for (int a = 0; a < static_cast<int>(decl.accesses.size()); ++a) {
      const AccessDecl& acc = decl.accesses[static_cast<std::size_t>(a)];
      keys.push_back({acc.rank, acc.seq, t, a});
    }
  }
  std::sort(keys.begin(), keys.end(), [](const Key& x, const Key& y) {
    return x.rank != y.rank ? x.rank < y.rank : x.seq < y.seq;
  });
  std::vector<std::pair<int, int>> out;
  out.reserve(keys.size());
  for (const Key& k : keys) out.emplace_back(k.task, k.access);
  return out;
}

void Program::validate_executable() const {
  ORWL_CHECK_MSG(!tasks_.empty(), "program has no tasks");
  for (const TaskDecl& decl : tasks_)
    ORWL_CHECK_MSG(decl.fn != nullptr,
                   "task '" << decl.name << "' has no body");
}

RunReport Program::run(Backend& backend) const { return backend.run(*this); }

}  // namespace orwl
