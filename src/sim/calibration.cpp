#include "sim/calibration.h"

#ifdef __linux__
#include <unistd.h>
#endif

namespace orwl::sim {

std::string host_fingerprint() {
#ifdef __linux__
  char name[256] = {};
  if (gethostname(name, sizeof name - 1) == 0 && name[0] != '\0')
    return name;
#endif
  return "unknown";
}

}  // namespace orwl::sim
