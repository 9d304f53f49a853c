// Static kernel verifier: the post-lowering pass over a CompiledKernel.
//
// Three stages, each feeding the next:
//   1. CFG construction (analysis/cfg.hpp) — structural legality: branch
//      targets, fall-off-the-end, FREP body/stagger rules.
//   2. Dataflow (analysis/dataflow.hpp) — SSR stream-state, use-before-def,
//      dead stores, and each core's register pressure from liveness.
//   3. Abstract interpretation (analysis/absint.hpp) — every memory access
//      and SSR stream bounded against the layout's TCDM arenas, every
//      overlap DMA job against the TCDM, plus exact per-port access counts
//      and the per-bank requester counts behind the conflict-free verdict.
//
// verify_kernel runs all three; verify_programs runs stages 1-2 only (no
// layout needed) and is the entry the negative tests use on hand-built
// broken programs. compile_kernel runs verify_kernel when
// CodegenOptions::verify is on (the default), caches the report in the
// artifact, and raises SimErrc::kIllegalProgram on errors with a
// disassembly window around the first finding.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/absint.hpp"
#include "analysis/cost.hpp"
#include "analysis/dataflow.hpp"
#include "analysis/diagnostic.hpp"
#include "runtime/compiled_kernel.hpp"

namespace saris {

struct VerifyReport {
  std::vector<Diagnostic> diags;
  /// Per-core register pressure from the dataflow stage, one entry per core
  /// (zeros without a CFG). Lint's register-pressure rule reads it, and the
  /// plan-cache cell summary prints it.
  std::vector<RegPressure> pressure;
  AbsintResult absint;
  /// Static cost pass + lint results, present when the compile ran with
  /// CodegenOptions::analyze_cost on.
  std::optional<CostReport> cost;

  bool ok() const { return !has_errors(diags); }
  u32 num_errors() const;
  u32 num_warnings() const;
};

/// Full verification of a compile artifact (all three stages).
VerifyReport verify_kernel(const CompiledKernel& ck);

/// Structural + dataflow stages only, over bare per-core programs (no
/// layout, no address bounding). Unit-test entry for hand-built programs.
VerifyReport verify_programs(const std::vector<Program>& progs);

/// Render up to `max_diags` findings, each with a disassembly window around
/// its (core, pc) anchor.
std::string render_report(const VerifyReport& rep,
                          const std::vector<Program>& progs,
                          u32 max_diags = 8);

/// Throw SimError(SimErrc::kIllegalProgram) when the report holds errors;
/// the detail carries the rendered findings.
void raise_if_bad(const VerifyReport& rep, const std::vector<Program>& progs);

}  // namespace saris
