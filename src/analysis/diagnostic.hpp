// Typed diagnostics produced by the static kernel verifier.
//
// Every finding about an instruction is anchored to a (core, pc) pair in the
// original program so it can be rendered with a disassembly window
// (isa/disasm) and attributed back to the emitting codegen path; a finding
// about an overlap DMA job has no instruction and carries kOverlapDmaCore
// instead of a core. Severity splits what must reject a compile (kError ->
// SimErrc::kIllegalProgram) from what is advisory (kWarning -> kept in the
// report, never fatal).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"

namespace saris {

enum class DiagKind : u8 {
  // ---- structural (CFG construction) ----
  kBadBranchTarget,      ///< resolved branch/jump target outside the program
  kFallOffEnd,           ///< fall-through past the last instruction
  kBadFrepBody,          ///< body length 0, > buffer, past program end, or a
                         ///< non-FP-compute (e.g. int-memory) op in the body
  kFrepOverControlFlow,  ///< control-flow instruction inside an FREP body
  kBadStagger,           ///< stagger outside [1, kFrepMaxStagger] or
                         ///< rotation past f31
  // ---- dataflow ----
  kUseBeforeDef,         ///< register read reachable with no prior write
  kDeadStore,            ///< register written but never read afterwards
  kUnconfiguredSsrRead,  ///< SSR-enabled read of a lane with no read stream
                         ///< launched (the statically detectable deadlock)
  // ---- abstract interpretation ----
  kOutOfArenaAccess,   ///< address inside TCDM but outside every arena the
                       ///< layout assigns (or a write to a read-only arena)
  kOutOfTcdmAccess,    ///< address outside [0, tcdm_bytes)
  kUnboundedValue,     ///< address/count depends on a non-static value
  kBadScfgwi,          ///< bad lane/word selector, bad index size/count, or
                       ///< an indirect launch on the affine-only lane
  kStepBudgetExceeded, ///< static execution did not finish within budget
  kNoHalt,             ///< static execution ended without reaching halt
  // ---- performance lint (advisory; emitted into CostReport::lint only,
  //      never into VerifyReport::diags, so they cannot fail a compile) ----
  kPerfFpuIssueGap,       ///< FPU issue gap from dependency-chain depth
  kPerfRegisterPressure,  ///< max-live close to the register-file ceiling
  kPerfSsrLaneIdle,       ///< SSR enabled but a lane never launched
  kPerfBankHotspot,       ///< stream concentrates traffic on a shared bank
};

const char* diag_kind_name(DiagKind k);

enum class DiagSeverity : u8 { kError, kWarning };

/// Diagnostic::core of a finding about an overlap DMA job: no core starts
/// the job, so the finding has no (core, pc) anchor and no disasm window.
inline constexpr u32 kOverlapDmaCore = ~u32{0};

struct Diagnostic {
  DiagKind kind = DiagKind::kBadBranchTarget;
  DiagSeverity severity = DiagSeverity::kError;
  u32 core = 0;  ///< or kOverlapDmaCore
  u32 pc = 0;    ///< original program index the finding anchors to
  std::string message;
};

/// "core 3 pc 17: error [use-before-def] ..." one-liner (no disasm window);
/// an overlap DMA finding reads "overlap DMA: error [...] ...".
std::string diag_to_string(const Diagnostic& d);

inline bool has_errors(const std::vector<Diagnostic>& diags) {
  for (const Diagnostic& d : diags) {
    if (d.severity == DiagSeverity::kError) return true;
  }
  return false;
}

}  // namespace saris
