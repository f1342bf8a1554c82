// Exchange workloads:
//
//   alltoall — every task publishes a fresh chunk each round and reads
//              every other task's chunk, accumulating a running sum. The
//              densest possible communication support (uniform_matrix) and
//              the worst case for any locality-seeking placement.
//   pipeline — a linear chain of stages streaming frames through bounded
//              hand-off buffers: stage 0 produces, inner stages transform,
//              the last stage reduces each frame to a checksum. Support is
//              the open ring (ring_matrix, periodic off).
//
// Both verify against closed-form sequential replays with identical
// summation order, so equality is exact.
//
// Every read section of both is one bulk copy into a task-private buffer;
// the arithmetic runs on the copy after the section is released, so a
// read lock is held only as long as the copy takes.

#include <algorithm>
#include <numeric>
#include <sstream>
#include <vector>

#include "comm/patterns.h"
#include "support/assert.h"
#include "workloads/builders.h"

namespace orwl::workloads::detail {

namespace {

/// Integer added to every element of task i's round-r chunk. `7k & 255`
/// takes each of its 256 values equally often over 256 consecutive k, so
/// without the offset every chunk of a multiple of 256 elements would have
/// the same sum, and a stale or misrouted read would still verify. It
/// differs between consecutive rounds of one task and between the tasks of
/// one round (up to 64 tasks).
int chunk_offset(int i, int r) { return (i * 17 + r * 5) & 63; }

/// Chunk element k published by task i in round r; `offset` is
/// chunk_offset(i, r). A multiple of 2^-8, so sums of chunks are exact.
double chunk_value(int i, int r, long k, int offset) {
  return static_cast<double>(((i * 31 + r * 17 + k * 7) & 255) + offset) /
         256.0;
}

/// Integer added to every element of pipeline frame r, for the same reason
/// as chunk_offset (`5k & 127` repeats every 128 elements). It differs
/// between consecutive frames.
int frame_offset(int r) { return (r * 5) & 63; }

/// Pipeline source frame element k of frame r; `offset` is
/// frame_offset(r). A multiple of 2^-7.
double frame_value(int r, long k, int offset) {
  return static_cast<double>(((r * 13 + k * 5) & 127) + offset) / 128.0;
}

/// Per-stage pipeline transform (applied by stages 1..n-1).
double stage_transform(int stage, double v) {
  return 0.5 * v + 0.01 * static_cast<double>(stage);
}

/// Adds to `acc` the sum of each `elems`-long chunk in `chunks`, in chunk
/// order. Each sum is a left fold from 0.0 in element order, exactly as
/// std::accumulate computes it. Three folds share each pass over k, each
/// in its own local, so their adds overlap instead of waiting on one
/// another; the chunks left over after the last group of three fold alone.
double add_chunk_sums(std::span<const double> chunks, std::size_t elems,
                      double acc) {
  const std::size_t count = chunks.size() / elems;
  const double* c = chunks.data();
  std::size_t j = 0;
  for (; j + 3 <= count; j += 3, c += 3 * elems) {
    const double* a = c;
    const double* b = c + elems;
    const double* d = c + 2 * elems;
    double sa = 0.0;
    double sb = 0.0;
    double sd = 0.0;
    for (std::size_t k = 0; k < elems; ++k) {
      sa += a[k];
      sb += b[k];
      sd += d[k];
    }
    acc += sa;
    acc += sb;
    acc += sd;
  }
  for (; j < count; ++j, c += elems)
    acc += std::accumulate(c, c + elems, 0.0);
  return acc;
}

}  // namespace

Built build_alltoall(Program& p, const Params& params) {
  ORWL_CHECK_MSG(params.tasks >= 1 && params.size >= 1 &&
                     params.iterations >= 1,
                 "alltoall needs tasks >= 1, size >= 1, iterations >= 1");
  const int n = params.tasks;
  const auto elems = static_cast<std::size_t>(params.size);
  const int T = params.iterations;

  std::vector<Location<double>> chunks, accs;
  chunks.reserve(static_cast<std::size_t>(n));
  accs.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    chunks.push_back(p.location<double>(elems, "chunk" + std::to_string(i)));
    accs.push_back(p.location<double>(1, "acc" + std::to_string(i)));
  }

  for (int i = 0; i < n; ++i) {
    TaskBuilder builder = p.task("peer" + std::to_string(i));
    builder.writes(chunks[static_cast<std::size_t>(i)], {.rank = 0});
    for (int j = 0; j < n; ++j)
      if (j != i) builder.reads(chunks[static_cast<std::size_t>(j)],
                                {.rank = 1});
    builder.writes(accs[static_cast<std::size_t>(i)], {.rank = 2});

    const auto bytes = static_cast<double>(elems * sizeof(double));
    builder.iterations(T)
        .cost(static_cast<double>(n) * static_cast<double>(elems),
              static_cast<double>(n) * bytes)
        .body([i, n, elems, chunks, accs, acc = 0.0,
               copies = std::vector<double>(
                   static_cast<std::size_t>(n - 1) * elems)](Step& s) mutable {
          if (s.first()) acc = 0.0;
          const int r = s.round();
          const int offset = chunk_offset(i, r);
          s.write(chunks[static_cast<std::size_t>(i)],
                  [&](std::span<double> out) {
                    for (std::size_t k = 0; k < elems; ++k)
                      out[k] = chunk_value(i, r, static_cast<long>(k), offset);
                  });
          auto dst = copies.begin();
          for (int j = 0; j < n; ++j) {
            if (j == i) continue;
            dst = s.read(chunks[static_cast<std::size_t>(j)],
                         [dst](std::span<const double> in) {
                           return std::copy(in.begin(), in.end(), dst);
                         });
          }
          acc = add_chunk_sums(copies, elems, acc);
          s.write(accs[static_cast<std::size_t>(i)],
                  [&](std::span<double> out) { out[0] = acc; });
        });
  }

  Built built;
  built.num_tasks = n;
  built.predicted = comm::uniform_matrix(
      n, static_cast<double>(elems * sizeof(double)));
  built.verify = [n, elems, T, accs](Backend& backend, std::string& why) {
    for (int i = 0; i < n; ++i) {
      double want = 0.0;
      for (int r = 0; r < T; ++r)
        for (int j = 0; j < n; ++j) {
          if (j == i) continue;
          const int offset = chunk_offset(j, r);
          double sum = 0.0;
          for (std::size_t k = 0; k < elems; ++k)
            sum += chunk_value(j, r, static_cast<long>(k), offset);
          want += sum;
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

Built build_pipeline(Program& p, const Params& params) {
  ORWL_CHECK_MSG(params.tasks >= 1 && params.size >= 1 &&
                     params.iterations >= 1,
                 "pipeline needs tasks >= 1, size >= 1, iterations >= 1");
  const int n = params.tasks;
  const auto elems = static_cast<std::size_t>(params.size);
  const int T = params.iterations;  // frames

  // Hand-off buffer between stage i and stage i+1, plus the per-frame
  // checksum store the last stage fills in.
  std::vector<Location<double>> bufs;
  for (int i = 0; i + 1 < n; ++i)
    bufs.push_back(p.location<double>(elems, "buf" + std::to_string(i)));
  const Location<double> sums =
      p.location<double>(static_cast<std::size_t>(T), "sums");

  const auto bytes = static_cast<double>(elems * sizeof(double));
  for (int i = 0; i < n; ++i) {
    const bool head = i == 0;
    const bool tail = i == n - 1;
    const Location<double> in =
        head ? Location<double>{} : bufs[static_cast<std::size_t>(i - 1)];
    const Location<double> out =
        tail ? Location<double>{} : bufs[static_cast<std::size_t>(i)];

    TaskBuilder builder = p.task("stage" + std::to_string(i));
    if (out.valid()) builder.writes(out, {.rank = 0});
    if (tail) builder.writes(sums, {.rank = 0});
    if (in.valid()) builder.reads(in, {.rank = 1});

    builder.iterations(T)
        .cost(static_cast<double>(elems), 2.0 * bytes)
        .body([i, elems, in, out, sums, head, tail,
               frame = std::vector<double>(elems)](Step& s) mutable {
          const int r = s.round();
          if (head) {
            const int offset = frame_offset(r);
            for (std::size_t k = 0; k < elems; ++k)
              frame[k] = frame_value(r, static_cast<long>(k), offset);
          } else {
            s.read(in, [&](std::span<const double> prev) {
              std::copy(prev.begin(), prev.end(), frame.begin());
            });
            for (double& v : frame) v = stage_transform(i, v);
          }
          if (!tail) {
            s.write(out, [&](std::span<double> next) {
              std::copy(frame.begin(), frame.end(), next.begin());
            });
          } else {
            const double sum =
                std::accumulate(frame.begin(), frame.end(), 0.0);
            s.write(sums, [&](std::span<double> store) {
              store[static_cast<std::size_t>(r)] = sum;
            });
          }
        });
  }

  Built built;
  built.num_tasks = n;
  built.predicted = comm::ring_matrix(n, bytes, /*periodic=*/false);
  built.verify = [n, elems, T, sums](Backend& backend, std::string& why) {
    const std::vector<double> got = backend.fetch(sums);
    for (int r = 0; r < T; ++r) {
      std::vector<double> frame(elems);
      const int offset = frame_offset(r);
      for (std::size_t k = 0; k < elems; ++k)
        frame[k] = frame_value(r, static_cast<long>(k), offset);
      for (int stage = 1; stage < n; ++stage)
        for (std::size_t k = 0; k < elems; ++k)
          frame[k] = stage_transform(stage, frame[k]);
      const double want = std::accumulate(frame.begin(), frame.end(), 0.0);
      if (got[static_cast<std::size_t>(r)] != want) {
        std::ostringstream os;
        os << "frame " << r << " checksum " << got[static_cast<std::size_t>(r)]
           << ", expected " << want;
        why = os.str();
        return false;
      }
    }
    return true;
  };
  return built;
}

}  // namespace orwl::workloads::detail
