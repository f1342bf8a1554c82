// Oversubscription stress workload: a periodic token ring with, by
// default, far more tasks than any reasonable host has PUs. Each peer
// publishes a fresh chunk every round and folds its left neighbour's
// chunk into a running sum. Communication is the periodic ring; the
// stress is in the thread count — under the default Direct control a run
// holds one live thread per task, under the opt-in PerTask control 2*tasks
// (each task's compute thread plus its control thread), and under
// SharedPool tasks plus the pool's threads. Either way the 1-PU
// pathologies the ROADMAP names (yield storms, futex convoys, grant bursts
// against a parked consumer) are exercised on any machine. Verifies
// against a closed-form replay with identical summation order, so
// equality is exact.

#include <numeric>
#include <sstream>
#include <vector>

#include "comm/patterns.h"
#include "support/assert.h"
#include "workloads/builders.h"

namespace orwl::workloads::detail {

namespace {

/// Chunk element k published by peer i in round r.
double token_value(int i, int r, long k) {
  return static_cast<double>((i * 29 + r * 11 + k * 3) & 255) / 256.0;
}

}  // namespace

Built build_oversub(Program& p, const Params& params) {
  ORWL_CHECK_MSG(params.tasks >= 1 && params.size >= 1 &&
                     params.iterations >= 1,
                 "oversub needs tasks >= 1, size >= 1, iterations >= 1");
  const int n = params.tasks;
  const auto elems = static_cast<std::size_t>(params.size);
  const int T = params.iterations;

  std::vector<Location<double>> ring, accs;
  ring.reserve(static_cast<std::size_t>(n));
  accs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ring.push_back(p.location<double>(elems, "ring" + std::to_string(i)));
    accs.push_back(p.location<double>(1, "osacc" + std::to_string(i)));
  }

  const auto bytes = static_cast<double>(elems * sizeof(double));
  for (int i = 0; i < n; ++i) {
    const int left = (i + n - 1) % n;
    TaskBuilder builder = p.task("peer" + std::to_string(i));
    builder.writes(ring[static_cast<std::size_t>(i)], {.rank = 0});
    if (n > 1)
      builder.reads(ring[static_cast<std::size_t>(left)], {.rank = 1});
    builder.writes(accs[static_cast<std::size_t>(i)], {.rank = 2});

    builder.iterations(T)
        .cost(static_cast<double>(elems), 2.0 * bytes)
        .body([i, left, n, elems, ring, accs, acc = 0.0](Step& s) mutable {
          if (s.first()) acc = 0.0;
          const int r = s.round();
          s.write(ring[static_cast<std::size_t>(i)],
                  [&](std::span<double> out) {
                    for (std::size_t k = 0; k < elems; ++k)
                      out[k] = token_value(i, r, static_cast<long>(k));
                  });
          if (n > 1) {
            acc += s.read(ring[static_cast<std::size_t>(left)],
                          [](std::span<const double> in) {
                            return std::accumulate(in.begin(), in.end(),
                                                   0.0);
                          });
          }
          s.write(accs[static_cast<std::size_t>(i)],
                  [&](std::span<double> out) { out[0] = acc; });
        });
  }

  Built built;
  built.num_tasks = n;
  built.predicted = comm::ring_matrix(n, bytes, /*periodic=*/true);
  built.verify = [n, elems, T, accs](Backend& backend, std::string& why) {
    for (int i = 0; i < n; ++i) {
      const int left = (i + n - 1) % n;
      double want = 0.0;
      if (n > 1) {
        for (int r = 0; r < T; ++r)
          for (std::size_t k = 0; k < elems; ++k)
            want += token_value(left, r, static_cast<long>(k));
      }
      const double have =
          backend.fetch(accs[static_cast<std::size_t>(i)])[0];
      if (have != want) {
        std::ostringstream os;
        os << "peer " << i << " accumulated " << have << ", expected "
           << want;
        why = os.str();
        return false;
      }
    }
    return true;
  };
  return built;
}

}  // namespace orwl::workloads::detail
