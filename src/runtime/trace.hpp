// ASCII rendering of a per-cycle activity series, such as the FPU-activity
// timeline a run records when RunConfig::record_timeline is set
// (RunMetrics::fpu_timeline: for each cycle of the compute window, the
// number of cores that issued a useful FPU op). The paper reads
// utilization from Snitch RTL traces; the strip is a quick look at the same
// signal (bench/debug_stalls prints one per cell).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace saris {

/// Render a per-cycle activity series (0..8 cores) as `buckets` characters,
/// each '0'-'8': the bucket's mean active-core count, rounded.
std::string ascii_activity_strip(const std::vector<u32>& series,
                                 u32 buckets = 64);

}  // namespace saris
