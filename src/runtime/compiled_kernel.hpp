// Compile stage of the run pipeline: everything about a (code, variant,
// options, machine shape) cell that does not depend on the run's data —
// per-core programs, the TCDM layout, SSR index vectors, and the
// steady-state overlap-DMA job templates.
//
// A CompiledKernel is immutable pure data and compile_kernel is
// deterministic, so executing from a cached artifact is bit-identical to
// recompiling. That is the contract the PlanCache (runtime/plan_cache.hpp)
// builds on to share one artifact across sweep workers, and what lets the
// multi-step examples compile once and execute every time step.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "codegen/layout.hpp"
#include "codegen/options.hpp"
#include "isa/program.hpp"
#include "mem/dma.hpp"
#include "stencil/stencil_def.hpp"

namespace saris {

struct VerifyReport;

enum class KernelVariant { kBase, kSaris };

const char* variant_name(KernelVariant v);

struct CompiledKernel {
  /// Owned copy of the descriptor: cached artifacts outlive the caller's
  /// StencilCode object (e.g. a custom code built on an example's stack).
  StencilCode code;
  KernelVariant variant = KernelVariant::kSaris;
  CodegenOptions options{};
  u32 n_cores = 0;
  u32 tcdm_bytes = 0;

  std::vector<Program> programs;  ///< one per core, in core order
  KernelLayout layout;
  /// Per-core index-array contents (saris variant only; empty for base).
  std::vector<std::array<std::vector<u16>, 2>> idx_values;
  /// One steady-state round of double-buffer DMA traffic (next tile in,
  /// previous result out), with main-memory addresses relative to base 0.
  std::vector<DmaJob> overlap_jobs;
  /// Verdict of the static verifier (analysis/verifier.hpp), when the
  /// verify pass ran at compile time. Shared because cached artifacts are
  /// copied out of the PlanCache; null when verification was disabled.
  std::shared_ptr<const VerifyReport> verify_report;
};

/// Pure lowering: run codegen and layout for one cell, with no cluster and
/// no data involved. Deterministic — equal inputs produce field-identical
/// artifacts (the warm-cache bit-identity guarantee rests on this).
CompiledKernel compile_kernel(const StencilCode& sc, KernelVariant variant,
                              const CodegenOptions& cg, u32 n_cores,
                              u32 tcdm_bytes = kTcdmSizeBytes);

}  // namespace saris
