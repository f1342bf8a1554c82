#pragma once
// Thread-to-cpuset binding (the hwloc_set_cpubind equivalent).

#include <optional>

#ifdef __linux__
#include <pthread.h>
#endif

#include "topo/bitmap.h"

namespace orwl::topo {

/// Bind the calling thread to the given cpuset. Returns false (and leaves
/// the binding unchanged) if the OS rejects the request — e.g. the cpuset
/// names CPUs that do not exist on this machine. An empty cpuset is
/// rejected with ContractError.
bool bind_current_thread(const Bitmap& cpuset);

/// Opaque handle for binding *another* thread (the pthread_t on Linux).
#ifdef __linux__
using ThreadHandle = pthread_t;
#else
using ThreadHandle = int;
#endif

/// Handle of the calling thread, for a later bind_thread() from elsewhere.
ThreadHandle current_thread_handle();

/// Re-bind a (possibly running) thread to `cpuset` — the mid-run migration
/// primitive the online re-placer uses on parked compute threads and live
/// control threads. Same failure semantics as bind_current_thread; also
/// returns false when the target thread has already exited.
bool bind_thread(ThreadHandle thread, const Bitmap& cpuset);

/// Current affinity mask of the calling thread, or nullopt if it cannot be
/// queried on this platform.
std::optional<Bitmap> current_thread_binding();

/// RAII: bind on construction, restore the previous mask on destruction.
/// If binding fails, bound() reports false and destruction is a no-op.
class ScopedBinding {
 public:
  explicit ScopedBinding(const Bitmap& cpuset);
  ~ScopedBinding();
  ScopedBinding(const ScopedBinding&) = delete;
  ScopedBinding& operator=(const ScopedBinding&) = delete;

  [[nodiscard]] bool bound() const { return bound_; }

 private:
  std::optional<Bitmap> previous_;
  bool bound_ = false;
};

}  // namespace orwl::topo
