#include "workloads/workloads.h"

#include <algorithm>
#include <sstream>

#include "lk23/lk23_program.h"
#include "support/assert.h"
#include "workloads/builders.h"
#include "workloads/grid.h"

namespace orwl::workloads {

namespace detail {

namespace {

/// Predicted FLOW pattern of a declaration: writer -> reader (and
/// writer -> writer, ownership moves) pairs per location, weighted by the
/// location size. Unlike Program::static_comm_matrix() this excludes
/// reader-reader cache-sharing pairs, so its support matches what
/// Instrument::record_flow can actually observe.
comm::CommMatrix flow_pattern_matrix(const Program& p) {
  const auto& locs = p.location_decls();
  const auto& tasks = p.task_decls();
  comm::CommMatrix m(p.num_tasks());
  for (int loc = 0; loc < p.num_locations(); ++loc) {
    const auto bytes =
        static_cast<double>(locs[static_cast<std::size_t>(loc)].bytes);
    if (bytes == 0.0) continue;
    std::vector<int> writers, readers;
    for (int t = 0; t < p.num_tasks(); ++t) {
      for (const Program::AccessDecl& a :
           tasks[static_cast<std::size_t>(t)].accesses) {
        if (a.location != loc) continue;
        auto& side = a.mode == AccessMode::Write ? writers : readers;
        if (std::find(side.begin(), side.end(), t) == side.end())
          side.push_back(t);
      }
    }
    for (std::size_t i = 0; i < writers.size(); ++i) {
      for (const int r : readers)
        if (r != writers[i]) m.add(writers[i], r, bytes);
      for (std::size_t j = i + 1; j < writers.size(); ++j)
        m.add(writers[i], writers[j], bytes);
    }
  }
  return m;
}

}  // namespace

Built build_lk23(Program& p, const Params& params) {
  ORWL_CHECK_MSG(params.tasks >= 1 && params.size >= 2 &&
                     params.iterations >= 0,
                 "lk23 needs tasks >= 1, size >= 2, iterations >= 0");
  const lk23::Spec spec =
      lk23::spec_for_tasks(params.size, params.iterations, params.tasks);
  const lk23::ProgramDef def = lk23::define_lk23_program(p, spec);

  Built built;
  built.num_tasks = def.num_tasks;
  built.predicted = flow_pattern_matrix(p);
  // Exact: bit-identical to the blocked reference by design (Sec. III).
  built.verify = [def](Backend& backend, std::string& why) {
    return verify_blocks(backend, def.spec.grid(), def.blocks,
                         lk23::blocked_reference(def.spec),
                         "blocked reference", why);
  };
  return built;
}

}  // namespace detail

const std::vector<Workload>& registry() {
  static const std::vector<Workload> entries = {
      {"lk23",
       "Livermore Kernel 23 block decomposition: per-block main ops plus 8 "
       "frontier ops (paper Sec. III)",
       {.tasks = 4, .size = 128, .iterations = 10},
       detail::build_lk23},
      {"stencil2d",
       "2-D Jacobi heat stencil: one task per block, direct face exchange "
       "with the 4 axis neighbours",
       {.tasks = 4, .size = 64, .iterations = 8},
       detail::build_stencil2d},
      {"wavefront",
       "block wavefront sweep: west/north incoming, east/south outgoing "
       "edges pipeline across the grid",
       {.tasks = 4, .size = 64, .iterations = 6},
       detail::build_wavefront},
      {"alltoall",
       "every task publishes a chunk per round and reads every other "
       "task's chunk (worst case for locality)",
       {.tasks = 6, .size = 1024, .iterations = 8},
       detail::build_alltoall},
      {"pipeline",
       "linear stage chain streaming frames hand-to-hand through bounded "
       "buffers",
       {.tasks = 4, .size = 4096, .iterations = 16},
       detail::build_pipeline},
      {"phaseshift",
       "block-grid stencil that switches to a transpose exchange halfway "
       "through the run (online re-placement showcase)",
       {.tasks = 64, .size = 65536, .iterations = 32},
       detail::build_phaseshift},
      {"oversub",
       "oversubscription stress: periodic token ring with tasks >> PUs "
       "(one live thread per task, 2*tasks under PerTask control; yield "
       "storms, futex convoys)",
       {.tasks = 48, .size = 128, .iterations = 6},
       detail::build_oversub},
  };
  return entries;
}

const Workload* find(const std::string& name) {
  for (const Workload& w : registry())
    if (w.name == name) return &w;
  return nullptr;
}

const Workload& get(const std::string& name) {
  const Workload* w = find(name);
  if (w == nullptr) {
    std::ostringstream os;
    os << "unknown workload '" << name << "'; registered:";
    for (const Workload& known : registry()) os << ' ' << known.name;
    ORWL_CHECK_MSG(false, os.str());
  }
  return *w;
}

std::vector<std::string> names() {
  std::vector<std::string> out;
  out.reserve(registry().size());
  for (const Workload& w : registry()) out.push_back(w.name);
  return out;
}

}  // namespace orwl::workloads
