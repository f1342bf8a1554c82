// Fixture: a workload source that includes a simulator header directly
// instead of reaching the simulator through orwl/backend.h.
// Must trip [layering].

#include "orwl/backend.h"
#include "sim/lk23_model.h"

namespace orwl::lintfix {
inline int one_layering_violation() { return 1; }
}  // namespace orwl::lintfix
