#pragma once
// The spin-then-park waiter: every blocking point of the ORWL core waits
// for an atomic word to change through wait_while_equal below, so the
// whole runtime shares one parking discipline (sync/wait_strategy.h) and
// one memory-ordering contract.
//
// Contract:
//  * wait_while_equal(word, old, ws) returns the first value it observes
//    that differs from `old`, loading with acquire ordering — writes that
//    happened-before the releasing store are visible to the caller.
//  * The WAKER must store the new value (release ordering) and then call
//    notify_one/notify_all on the same atomic. A store without a notify
//    leaves parked waiters asleep (spinning waiters still notice).
//  * Spurious wakes are absorbed internally: the function only returns on
//    a genuine value change.
//
// The park itself is C++20 std::atomic::wait — a futex on Linux for
// 32-bit words, which is why the core's wait words (RequestState, event
// sequence numbers, the epoch generation) are 32-bit.

#include <atomic>
#include <cstdint>
#include <thread>

#include "sync/wait_strategy.h"

namespace orwl::sync {

/// Hint the CPU that we are busy-waiting (x86 PAUSE / ARM YIELD).
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  // order: seq_cst — compiler-only fence standing in for a pause
  // instruction on unknown ISAs; no hardware ordering implied.
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// How long a wait_while_equal call actually waited: spin rounds burnt and
/// futex parks taken. Filled by the counted overload below; the numbers
/// feed the per-handle wait-length histograms (obs/).
struct WaitLength {
  std::uint32_t rounds = 0;  ///< spin-loop iterations before the word flipped
  std::uint32_t parks = 0;   ///< futex parks (0 = the spin phase sufficed)
};

/// Block the calling thread until `word != old` per the strategy; returns
/// the first differing value (acquire ordering). When `len` is non-null it
/// receives the observed wait length (a fast-path hit leaves it zeroed).
template <class T>
[[nodiscard]] T wait_while_equal(const std::atomic<T>& word, T old,
                                 const WaitStrategy& ws,
                                 WaitLength* len) noexcept {
  if (len != nullptr) *len = {};
  // order: acquire — every load here pairs with the waker's release store
  // so the writes that happened-before it are visible on return (the
  // contract above).
  T v = word.load(std::memory_order_acquire);
  if (v != old) return v;

  const auto spin_round = [&](int round) {
    // Early rounds burn cycles in-core; later rounds yield so the thread
    // that will flip the word can run — essential on oversubscribed and
    // single-PU hosts, where pure spinning would stall the waker for a
    // whole scheduler quantum.
    if (round < WaitStrategy::kRelaxRounds)
      cpu_relax();
    else
      std::this_thread::yield();
  };

  switch (ws.mode) {
    case WaitMode::Spin:
      for (int round = 0;; ++round) {
        // order: acquire — same pairing as the first load above.
        v = word.load(std::memory_order_acquire);
        if (v != old) {
          if (len != nullptr) len->rounds = static_cast<std::uint32_t>(round);
          return v;
        }
        spin_round(round);
      }
    case WaitMode::SpinThenPark:
      for (int round = 0; round < ws.spins; ++round) {
        // order: acquire — same pairing as the first load above.
        v = word.load(std::memory_order_acquire);
        if (v != old) {
          if (len != nullptr) len->rounds = static_cast<std::uint32_t>(round);
          return v;
        }
        spin_round(round);
      }
      if (len != nullptr)
        len->rounds = static_cast<std::uint32_t>(ws.spins);
      [[fallthrough]];
    case WaitMode::Block:
      for (;;) {
        // order: acquire — same pairing as the first load above; the futex
        // wait re-checks with acquire so a wake cannot be consumed without
        // the release-store's effects.
        v = word.load(std::memory_order_acquire);
        if (v != old) return v;
        if (len != nullptr) ++len->parks;
        // order: acquire — the wait's own re-check load keeps the same
        // pairing as the loop load above.
        word.wait(old, std::memory_order_acquire);
      }
  }
  return v;  // unreachable
}

/// Uncounted form: identical semantics, no bookkeeping.
template <class T>
[[nodiscard]] T wait_while_equal(const std::atomic<T>& word, T old,
                                 const WaitStrategy& ws) noexcept {
  return wait_while_equal(word, old, ws, static_cast<WaitLength*>(nullptr));
}

/// Spin (relax, then yield) until `done()` returns true. For short-bounded
/// waits that cannot park — e.g. a ring-slot handoff where the flipping
/// thread is guaranteed to be running the protocol right now. The yield
/// phase keeps it live on oversubscribed and single-PU hosts.
template <class Pred>
void spin_until(Pred&& done) noexcept(noexcept(done())) {
  for (int round = 0; !done(); ++round) {
    if (round < WaitStrategy::kRelaxRounds)
      cpu_relax();
    else
      std::this_thread::yield();
  }
}

/// Wake waiters parked on `word`. The new value must already be stored
/// (release ordering) or the woken thread will just re-park.
template <class T>
void notify_one(std::atomic<T>& word) noexcept {
  word.notify_one();
}
template <class T>
void notify_all(std::atomic<T>& word) noexcept {
  word.notify_all();
}

}  // namespace orwl::sync
