#include "topo/binding.h"

#include "support/assert.h"

#ifdef __linux__
#include <sched.h>
#endif

namespace orwl::topo {

#ifdef __linux__

namespace {

bool fill_cpu_set(const Bitmap& cpuset, cpu_set_t& set) {
  ORWL_CHECK_MSG(!cpuset.empty(), "cannot bind to an empty cpuset");
  CPU_ZERO(&set);
  for (int cpu : cpuset.to_vector()) {
    if (cpu >= CPU_SETSIZE) return false;
    CPU_SET(cpu, &set);
  }
  return true;
}

}  // namespace

bool bind_current_thread(const Bitmap& cpuset) {
  cpu_set_t set;
  if (!fill_cpu_set(cpuset, set)) return false;
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

ThreadHandle current_thread_handle() { return pthread_self(); }

bool bind_thread(ThreadHandle thread, const Bitmap& cpuset) {
  cpu_set_t set;
  if (!fill_cpu_set(cpuset, set)) return false;
  return pthread_setaffinity_np(thread, sizeof set, &set) == 0;
}

std::optional<Bitmap> current_thread_binding() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return std::nullopt;
  Bitmap b;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
    if (CPU_ISSET(cpu, &set)) b.set(cpu);
  return b;
}

#else  // non-Linux: binding is a no-op.

bool bind_current_thread(const Bitmap& cpuset) {
  ORWL_CHECK_MSG(!cpuset.empty(), "cannot bind to an empty cpuset");
  return false;
}

ThreadHandle current_thread_handle() { return 0; }

bool bind_thread(ThreadHandle, const Bitmap& cpuset) {
  ORWL_CHECK_MSG(!cpuset.empty(), "cannot bind to an empty cpuset");
  return false;
}

std::optional<Bitmap> current_thread_binding() { return std::nullopt; }

#endif

ScopedBinding::ScopedBinding(const Bitmap& cpuset) {
  previous_ = current_thread_binding();
  bound_ = bind_current_thread(cpuset);
}

ScopedBinding::~ScopedBinding() {
  if (bound_ && previous_) bind_current_thread(*previous_);
}

}  // namespace orwl::topo
