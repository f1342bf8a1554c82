#pragma once
// Host fingerprint, stamped into every BENCH_*.json context (host_name) so a
// recording names the machine that measured it.

#include <string>

namespace orwl::sim {

/// This host's fingerprint (gethostname; "unknown" when unavailable).
std::string host_fingerprint();

}  // namespace orwl::sim
