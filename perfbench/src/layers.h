// The traced run: per-layer metrics for one workload, measured from
// outside the program — timed calls into each layer's public functions
// around a replay of the workload's own streams, the wire server_info
// counters, and per-thread CPU of the server's threads.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

void RunTraced(const Plan& plan, uint64_t seed, const std::string& root,
               Outcome* out);

}  // namespace perfbench
