#pragma once
// WaitStrategy: how a thread waits for a synchronization word to change.
//
// Every parking point of the ORWL core (handle grant waits, control-thread
// event pops, the epoch barrier) funnels through sync::wait_while_equal
// (waiter.h), and this strategy decides what the calling thread does while
// the word still holds the old value:
//
//   block            — park immediately on the futex behind
//                      std::atomic::wait; the classic condvar-like shape,
//                      cheapest when waits are long.
//   spin_then_park   — spin a bounded number of rounds, then park. The
//                      first kRelaxRounds are pure cpu-relax (a wait that
//                      resolves there costs no syscall at all); the
//                      remaining rounds sched-yield, trading the futex
//                      park/wake pair for cooperative rescheduling — the
//                      winning move on oversubscribed or single-PU hosts,
//                      where the thread that will flip the word needs this
//                      core to run.
//   spin             — never park; cpu-relax bursts with periodic yields.
//                      Lowest wake latency, burns a PU; benchmarking only.
//
// The runtime default (RuntimeOptions::wait) is spin_then_park(256): on a
// 4-CPU host one futex park/wake handoff of a word costs ~1.9 us against
// ~0.1 us spinning, and a grant-bound pipeline (4 stages, 2000 frames)
// runs ~44 -> ~13 ms per execution on half the CPU time, while a
// compute-bound stencil does not move. With the default Direct control
// (no control threads), block is faster beyond noise on no registered
// workload, on 4 CPUs or on one PU, programs of 36-64 tasks included (it
// won at most half the alternating pairs); the 6-9% loss once seen
// at 36-48 tasks came with idle per-task control threads. A
// default-constructed WaitStrategy is block, and so is the ipc
// transport's.
//
// The strategy is plumbed from Program::wait_strategy() / RuntimeOptions
// down to every waiter, and swept by bench/micro_orwl_overhead and
// tools/orwl_bench --wait-strategy.

#include <cstdint>
#include <string>

namespace orwl::sync {

enum class WaitMode : std::uint8_t {
  Block,         ///< park immediately (futex wait)
  SpinThenPark,  ///< bounded spin (relax, then yield), then park
  Spin,          ///< spin forever (relax bursts + periodic yields)
};

struct WaitStrategy {
  WaitMode mode = WaitMode::Block;
  /// Spin rounds before parking (SpinThenPark only). The first
  /// kRelaxRounds of them are pure cpu-relax; the rest yield the CPU.
  int spins = 256;

  /// Spin rounds burned as pure cpu-relax before the loop starts
  /// yielding — yields are what make spinning safe (and fast) on
  /// oversubscribed or single-PU hosts, where the thread that will flip
  /// the word needs this core to run.
  static constexpr int kRelaxRounds = 16;

  [[nodiscard]] static constexpr WaitStrategy block() {
    return {WaitMode::Block, 0};
  }
  [[nodiscard]] static constexpr WaitStrategy spin_then_park(
      int spins = 256) {
    return {WaitMode::SpinThenPark, spins};
  }
  [[nodiscard]] static constexpr WaitStrategy spin() {
    return {WaitMode::Spin, 0};
  }

  friend bool operator==(const WaitStrategy& a,
                         const WaitStrategy& b) = default;
};

/// "block", "spin_then_park(256)", "spin".
std::string to_string(const WaitStrategy& ws);

/// Parse "block" | "spin" | "spin_then_park" | "spin_then_park(N)" |
/// "spin_then_park:N" (case-insensitive). Throws ContractError naming the
/// accepted forms on anything else.
WaitStrategy parse_wait_strategy(const std::string& text);

}  // namespace orwl::sync
