// Table D (micro): ORWL runtime overhead, measured natively — FIFO queue
// operations, grant cycles in both control modes and across wait
// strategies, contended queues, and shared-read grants. Timing, repetition
// and JSON emission go through the shared harness (median/MAD over R
// repetitions after warmup) instead of google-benchmark, so the bench
// builds everywhere and its output matches the BENCH_*.json layout of the
// other drivers.
//
// The wait-strategy sweep records block vs spin_then_park for both direct
// and control-thread grant delivery — the cases the lock-cheap core
// refactor is judged by (an uncontended grant is one atomic load; a
// contended one parks on the request state itself).
//
// The shared-read cases run twice — batched (default runtime behavior,
// historical unsuffixed names) and /nobatch (per-grant announcements) — so
// the recording itself shows what batching buys.
//
//   micro_orwl_overhead [--reps R] [--warmup W] [--json PATH]
//                       [--filter SUBSTRING]

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "harness/bench.h"
#include "harness/json.h"
#include "harness/stats.h"
#include "obs/metrics.h"
#include "orwl/runtime.h"
#include "support/table.h"
#include "support/time.h"
#include "sync/wait_strategy.h"
#include "sync/waiter.h"

namespace {

using namespace orwl;

/// One micro scenario: a callable that performs `items` operations and
/// returns the elapsed seconds.
struct Micro {
  std::string name;
  std::string wait;  ///< wait strategy in force ("" = not applicable)
  double items = 0;
  std::function<double()> once;
  /// Wait-length (spin rounds per slow-path acquire) histogram summed over
  /// every handle and repetition — the per-strategy distribution the JSON
  /// embeds next to the timings. Null for non-runtime micros.
  std::shared_ptr<obs::HistogramSnapshot> wait_rounds;
};

/// Fold every per-handle orwl.wait_rounds/* histogram of one run into the
/// micro's accumulator.
void merge_wait_rounds(const obs::RegistrySnapshot& snap,
                       obs::HistogramSnapshot& into) {
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    if (h.name.rfind("orwl.wait_rounds", 0) != 0) continue;
    into.count += h.count;
    into.sum += h.sum;
    for (int i = 0; i < obs::HistogramSnapshot::kBuckets; ++i)
      into.buckets[static_cast<std::size_t>(i)] +=
          h.buckets[static_cast<std::size_t>(i)];
  }
}

// Raw queue cycle: insert -> (granted) -> release_and_renew, no threads.
Micro queue_renew_cycle() {
  const int cycles = 200000;
  return {"queue_renew_cycle", "", static_cast<double>(cycles), [cycles] {
            int grants = 0;
            GrantFn sink([&grants](Request&) { ++grants; });
            FifoQueue q(&sink);
            Request slots[2];
            slots[0].mode = AccessMode::Write;
            slots[1].mode = AccessMode::Write;
            q.insert(slots[0]);
            int cur = 0;
            WallTimer timer;
            for (int i = 0; i < cycles; ++i) {
              q.release_and_renew(slots[cur], slots[cur ^ 1]);
              cur ^= 1;
            }
            const double s = timer.seconds();
            (void)grants;
            return s;
          },
          nullptr};
}

// Park/wake calibration: two threads hand one 32-bit word back and forth
// through the shared sync:: waiter. Under block every handoff pays the
// futex park + wake pair; under spin none does (the yield-based handoff is
// what a spinning grant consumer pays instead). The per-handoff delta of
// the two cases is the park+wake cost the simulator's
// sim::LinkCost::park_latency/wake_latency fields model — main() derives
// it from the medians and records it in the JSON context.
Micro park_wake_handoff(sync::WaitStrategy ws) {
  const int handoffs = 20000;  // word transfers per rep (both directions)
  return {"park_wake_calibration/" + sync::to_string(ws),
          sync::to_string(ws), static_cast<double>(handoffs), [ws, handoffs] {
            std::atomic<std::uint32_t> word{0};
            const auto n = static_cast<std::uint32_t>(handoffs);
            // Peer: park at each even value, answer the odd one with the
            // next even — each loop turn consumes one handoff and makes
            // one.
            std::thread peer([&word, n, ws] {
              for (std::uint32_t v = 0; v < n; v += 2) {
                (void)sync::wait_while_equal(word, v, ws);
                word.store(v + 2, std::memory_order_release);
                sync::notify_one(word);
              }
            });
            WallTimer timer;
            // Main: make each odd value, park on it until the peer
            // answers.
            for (std::uint32_t v = 1; v < n; v += 2) {
              word.store(v, std::memory_order_release);
              sync::notify_one(word);
              (void)sync::wait_while_equal(word, v, ws);
            }
            const double s = timer.seconds();
            peer.join();
            return s;
          },
          nullptr};
}

/// N writer tasks round-robin on one location for `rounds` grants each.
double run_writers(RuntimeOptions::ControlMode mode, sync::WaitStrategy wait,
                   int writers, int rounds,
                   obs::HistogramSnapshot* wait_out = nullptr) {
  RuntimeOptions opts;
  opts.control = mode;
  opts.record_flows = false;
  opts.wait = wait;
  Runtime rt(opts);
  const LocationId loc = rt.add_location(64);
  for (int i = 0; i < writers; ++i) {
    rt.add_task("w" + std::to_string(i), [i, rounds](TaskContext& ctx) {
      Handle& h = ctx.handle(i);
      for (int r = 0; r < rounds; ++r) {
        h.acquire();
        if (r + 1 == rounds)
          h.release();
        else
          h.release_and_renew();
      }
    });
  }
  for (int i = 0; i < writers; ++i) rt.add_handle(i, loc, AccessMode::Write);
  WallTimer timer;
  rt.run();
  const double seconds = timer.seconds();
  if (wait_out != nullptr) merge_wait_rounds(rt.metrics().snapshot(), *wait_out);
  return seconds;
}

// End-to-end grant latency: two tasks alternate on one location; a full
// request->control->deliver->acquire->release cycle per item. The
// wait-strategy sweep emits one case per (delivery mode, strategy); the
// block cases keep their historical unsuffixed names so they stay
// comparable across recordings.
Micro runtime_alternation(bool per_task_control, sync::WaitStrategy wait,
                          bool suffix_strategy) {
  const int rounds = 2000;
  const auto mode = per_task_control ? RuntimeOptions::ControlMode::PerTask
                                     : RuntimeOptions::ControlMode::Direct;
  std::string name = std::string("runtime_alternation/") +
                     (per_task_control ? "control-threads" : "direct");
  if (suffix_strategy) name += "/" + sync::to_string(wait);
  auto hist = std::make_shared<obs::HistogramSnapshot>();
  return {std::move(name), sync::to_string(wait), 2.0 * rounds,
          [mode, wait, rounds, hist] {
            return run_writers(mode, wait, 2, rounds, hist.get());
          },
          hist};
}

Micro runtime_contention(int writers) {
  const int rounds = 500;
  auto hist = std::make_shared<obs::HistogramSnapshot>();
  return {"runtime_contention/" + std::to_string(writers),
          sync::to_string(sync::WaitStrategy::block()),
          static_cast<double>(writers) * rounds, [writers, rounds, hist] {
            return run_writers(RuntimeOptions::ControlMode::Direct,
                               sync::WaitStrategy::block(), writers, rounds,
                               hist.get());
          },
          hist};
}

// Shared reads: one writer, N readers per round. `batch` A/Bs the batched
// shared-read announcement (RuntimeOptions::batch_grants); the batched
// cases keep the historical unsuffixed names so recordings stay
// comparable, the per-grant path gets a /nobatch suffix.
Micro runtime_shared_reads(int readers, bool batch = true) {
  const int rounds = 500;
  auto hist = std::make_shared<obs::HistogramSnapshot>();
  return {"runtime_shared_reads/" + std::to_string(readers) +
              (batch ? "" : "/nobatch"),
          sync::to_string(sync::WaitStrategy::block()),
          static_cast<double>(readers + 1) * rounds,
          [readers, rounds, batch, hist] {
            RuntimeOptions opts;
            opts.control = RuntimeOptions::ControlMode::Direct;
            opts.record_flows = false;
            opts.batch_grants = batch;
            // Pinned, not the runtime default: the recorded label (and
            // every earlier recording of these cases) is block.
            opts.wait = sync::WaitStrategy::block();
            Runtime rt(opts);
            const LocationId loc = rt.add_location(4096);
            const auto body = [rounds](Handle& h) {
              for (int r = 0; r < rounds; ++r) {
                h.acquire();
                if (r + 1 == rounds)
                  h.release();
                else
                  h.release_and_renew();
              }
            };
            rt.add_task("w", [&body](TaskContext& ctx) {
              body(ctx.handle(0));
            });
            for (int i = 0; i < readers; ++i)
              rt.add_task("r" + std::to_string(i), [&body, i](TaskContext& ctx) {
                body(ctx.handle(1 + i));
              });
            rt.add_handle(0, loc, AccessMode::Write);
            for (int i = 0; i < readers; ++i)
              rt.add_handle(1 + i, loc, AccessMode::Read);
            WallTimer timer;
            rt.run();
            const double seconds = timer.seconds();
            merge_wait_rounds(rt.metrics().snapshot(), *hist);
            return seconds;
          },
          hist};
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5, warmup = 1;
  std::string json_path, filter;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--reps" && i + 1 < argc) reps = std::atoi(argv[++i]);
    else if (a == "--warmup" && i + 1 < argc) warmup = std::atoi(argv[++i]);
    else if (a == "--json" && i + 1 < argc) json_path = argv[++i];
    else if (a == "--filter" && i + 1 < argc) filter = argv[++i];
    else {
      std::cerr << "usage: " << argv[0]
                << " [--reps R] [--warmup W] [--json PATH]"
                   " [--filter SUBSTRING]\n";
      return 2;
    }
  }
  if (reps < 1 || warmup < 0) {
    std::cerr << "need --reps >= 1 and --warmup >= 0 (got reps=" << reps
              << ", warmup=" << warmup << ")\n";
    return 2;
  }

  const sync::WaitStrategy kBlock = sync::WaitStrategy::block();
  const sync::WaitStrategy kSpinThenPark =
      sync::WaitStrategy::spin_then_park();

  std::vector<Micro> micros;
  micros.push_back(queue_renew_cycle());
  // Wait-strategy sweep: block (historical unsuffixed names) vs
  // spin_then_park, for both grant-delivery modes.
  micros.push_back(runtime_alternation(false, kBlock, false));
  micros.push_back(runtime_alternation(true, kBlock, false));
  micros.push_back(runtime_alternation(false, kSpinThenPark, true));
  micros.push_back(runtime_alternation(true, kSpinThenPark, true));
  for (int n : {2, 4, 8}) micros.push_back(runtime_contention(n));
  for (int n : {2, 4, 8}) micros.push_back(runtime_shared_reads(n));
  // A/B: the same reader sweep with per-grant announcements, so every
  // recording carries its own evidence of what batching buys.
  for (int n : {2, 4, 8}) micros.push_back(runtime_shared_reads(n, false));
  // Park/wake calibration (block-vs-spin handoff delta; see
  // park_wake_handoff). Derived pair latency lands in the JSON context.
  micros.push_back(park_wake_handoff(kBlock));
  micros.push_back(park_wake_handoff(sync::WaitStrategy::spin()));

  struct Row {
    Micro micro;
    harness::Stats stats;
  };
  std::vector<Row> rows;
  Table table({"benchmark", "time (median ±MAD)", "items/s"});
  for (Micro& micro : micros) {
    if (!filter.empty() && micro.name.find(filter) == std::string::npos)
      continue;
    const harness::Stats stats = harness::sample(warmup, reps, micro.once);
    table.add_row({micro.name,
                   format_seconds(stats.median) + " ±" +
                       format_seconds(stats.mad),
                   fmt(stats.median > 0 ? micro.items / stats.median : 0.0,
                       0)});
    rows.push_back({micro, stats});
  }
  table.print(std::cout);

  if (!json_path.empty()) {
    std::cout << '\n';
    const bool ok = harness::write_bench_file(
        json_path, "micro_orwl_overhead",
        [&](harness::JsonWriter& json) {
          json.member("repetitions", reps);
          json.member("warmup", warmup);
          // Derived park+wake pair cost: what one blocking handoff pays
          // over a spinning one, per item — the measurement behind
          // sim::LinkCost::park_latency/wake_latency.
          double block_med = 0.0, spin_med = 0.0, items = 0.0;
          for (const Row& row : rows) {
            if (row.micro.name == "park_wake_calibration/block") {
              block_med = row.stats.median;
              items = row.micro.items;
            } else if (row.micro.name == "park_wake_calibration/spin") {
              spin_med = row.stats.median;
            }
          }
          if (items > 0) {
            const double delta = block_med - spin_med;
            json.member("park_wake_pair_seconds",
                        delta > 0 ? delta / items : 0.0);
          }
        },
        [&](harness::JsonWriter& json) {
          for (const Row& row : rows) {
            json.begin_object();
            json.member("name", row.micro.name);
            if (!row.micro.wait.empty())
              json.member("wait_strategy", row.micro.wait);
            json.member("items", row.micro.items);
            json.member("seconds_median", row.stats.median);
            json.member("seconds_mad", row.stats.mad);
            json.member("seconds_min", row.stats.min);
            json.member("seconds_max", row.stats.max);
            json.member("items_per_second",
                        row.stats.median > 0
                            ? row.micro.items / row.stats.median
                            : 0.0);
            // Wait-length distribution (spin rounds per slow-path
            // acquire), all handles and repetitions pooled — what the
            // wait-strategy sweep is actually about.
            if (row.micro.wait_rounds && !row.micro.wait_rounds->empty())
              harness::write_histogram(json, "wait_rounds",
                                       *row.micro.wait_rounds);
            json.end_object();
          }
        });
    if (!ok) return 1;
  }
  return 0;
}
