// Static kernel verifier: the post-lowering pass over a CompiledKernel.
//
// Three stages, each feeding the next:
//   1. CFG construction (analysis/cfg.hpp) — structural legality: branch
//      targets, fall-off-the-end, FREP body/stagger rules.
//   2. Dataflow (analysis/dataflow.hpp) — SSR stream-state, use-before-def,
//      dead stores, and the per-pc liveness export behind the register
//      pressure figures.
//   3. Abstract interpretation (analysis/absint.hpp) — every memory access
//      and SSR stream bounded against the layout's TCDM arenas, every
//      overlap DMA job against the TCDM, plus exact per-port access counts
//      and the per-bank requester counts behind the conflict-free verdict.
//
// verify_kernel runs all three; verify_programs runs stages 1-2 only (no
// layout needed) and is the entry the negative tests use on hand-built
// broken programs. compile_kernel runs verify_kernel when enabled
// (CodegenOptions::verify / SARIS_VERIFY, default on), caches the report in
// the artifact, and raises SimErrc::kIllegalProgram on errors with a
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

/// Per-core register pressure, derived from the liveness export: the peak
/// number of simultaneously-live registers and the pc where it occurs.
/// Lint's register-pressure rule reads it, and the plan-cache cell summary
/// prints it.
struct RegPressure {
  u32 max_live_x = 0;
  u32 max_live_f = 0;
  u32 at_pc_x = 0;
  u32 at_pc_f = 0;
};

struct VerifyReport {
  std::vector<Diagnostic> diags;
  /// Per-core liveness export (empty RegSets for cores whose CFG could not
  /// be built), from which `pressure` is derived.
  std::vector<LivenessExport> liveness;
  /// Per-core max-live, one entry per core (zeros without a CFG).
  std::vector<RegPressure> pressure;
  AbsintResult absint;
  /// Static cost pass + lint results, present when the compile ran with
  /// analyze_cost on (CodegenOptions::analyze_cost / SARIS_ANALYZE).
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

/// Effective on/off for the compile-time verify pass: CodegenOptions::verify
/// when set (0/1), else the SARIS_VERIFY environment variable ("0", "off",
/// "false" disable), else on.
bool resolve_verify(const CodegenOptions& cg);

}  // namespace saris
