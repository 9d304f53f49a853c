// Performance linter over the priced run's records.
//
// Turns the cost pass's per-pc FPU stalls and stream launches
// (analysis/cost.hpp, read off an ideal-TCDM run) and dataflow facts into
// actionable, pc-anchored advisory diagnostics (DiagSeverity::kWarning,
// kPerf* kinds). Findings live in CostReport::lint only — they are never
// merged into VerifyReport::diags, so they cannot fail a compile. Four
// rules:
//   * FPU issue gap — a single instruction accumulating scoreboard-operand
//     stall cycles (dependency chain deeper than the accumulator set);
//   * register-pressure ceiling — liveness max-live close to the 32-entry
//     register file, i.e. no headroom left for further unrolling;
//   * idle SSR lane — streaming enabled but a lane never launched (a load
//     stream the kernel could still offload);
//   * bank hotspot — a stream concentrating its accesses on a TCDM bank
//     that other core ports also touch (absint's per-bank histograms and
//     requester counts, attributed back to the launching scfgwi).
#pragma once

#include <vector>

#include "analysis/cost.hpp"
#include "analysis/diagnostic.hpp"

namespace saris {

struct VerifyReport;

/// Issue-gap rule: flag the worst operand-stall pc of a core when it burns
/// at least this many cycles AND this fraction of the core's busy window.
inline constexpr u64 kLintIssueGapMinCycles = 64;
inline constexpr double kLintIssueGapMinFraction = 0.05;

/// Pressure rule: flag when max-live reaches this many of the 32 registers.
inline constexpr u32 kLintPressureCeiling = 28;

/// Hotspot rule: flag a port whose busiest bank carries more than this
/// multiple of its uniform per-bank share while the bank is shared.
inline constexpr double kLintHotspotSkew = 2.0;

std::vector<Diagnostic> lint_kernel(const CompiledKernel& ck,
                                    const VerifyReport& rep,
                                    const CostReport& cost);

}  // namespace saris
