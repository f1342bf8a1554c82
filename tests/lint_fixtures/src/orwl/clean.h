#pragma once
// Fixture: a file every rule must pass — guards the self-test against the
// lint going trigger-happy (false positives would gate CI on noise).

#include <atomic>

#include "orwl/queue.h"

namespace orwl::lintfix {

// sink-contract: no-queue-reentry — records and returns.
class QuietSink final : public GrantSink {
 public:
  void on_grant(Request& req) override { last = req.ticket; }
  Ticket last = 0;
};

inline int justified_load(const std::atomic<int>& a) {
  // order: acquire — pairs with the writer's release store.
  return a.load(std::memory_order_acquire);
}

// lint: allow-naked-acquire(fixture demonstrates the suppression form)
inline void suppressed(Handle& h) { h.acquire(); }

// Not code-generation knobs: alignas on data, an attribute that is not on
// the codegen list, and a pragma annotated with its reason.
struct alignas(64) CacheLine {
  std::atomic<int> v{0};
};
#define LINTFIX_ANNOTATION(x) __attribute__((x))
// lint: allow-codegen(fixture demonstrates the suppression form)
#pragma GCC diagnostic ignored "-Wunused"

}  // namespace orwl::lintfix
