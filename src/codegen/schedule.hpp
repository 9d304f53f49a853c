// Point-loop schedule generation (SARIS method step 4).
//
// A Schedule is the ordered list of abstract FP operations performing one
// point update: which taps/coefficients each op consumes and which
// accumulator chain it extends. Reassociation into `chains` independent
// accumulator chains hides FPU latency; the construction preserves the
// paper's Table 1 FLOP counts for any chain count. Both the baseline and
// the SARIS code generator lower the same Schedule, which is what makes the
// comparison apples-to-apples (same arithmetic, different memory access).
#pragma once

#include <vector>

#include "isa/opcode.hpp"
#include "stencil/stencil_def.hpp"

namespace saris {

enum class StepKind {
  kSeedMulTap,       // A[c]  = coeff * tap_a                (fmul)
  kSeedMulTapConst,  // A[c]  = coeff * tap_a + const_coeff  (fmadd)
  kFmaTap,           // A[c] += coeff * tap_a                (fmadd)
  kSeedAddTaps,      // A[c]  = tap_a + tap_b                (fadd)
  kAddTap,           // A[c] += tap_a                        (fadd)
  kPairAdd,          // T     = tap_a + tap_b                (fadd, pushes tmp)
  kSeedMulPair,      // A[c]  = coeff * T                    (fmul, pops tmp)
  kFmaPair,          // A[c] += coeff * T                    (fmadd, pops tmp)
  kCombine,          // A[0] += A[c]                         (fadd)
  kScale,            // OUT   = coeff * A[0]                 (fmul)
  kSubTap,           // OUT   = A[0] - tap_a                 (fsub)
};

struct Step {
  StepKind kind;
  i32 tap_a = -1;
  i32 tap_b = -1;
  i32 coeff = -1;
  i32 chain = 0;
  bool final_out = false;  ///< this op produces the point's output value
};

struct Schedule {
  std::vector<Step> steps;
  u32 chains = 1;     ///< accumulator chains used
  u32 tmp_regs = 0;   ///< live pair temporaries needed (AxisPairs pipelining)
  u32 n_taps = 0;

  u32 ops() const { return static_cast<u32>(steps.size()); }
  /// FLOPs of this schedule (must equal StencilCode::flops_per_point()).
  u32 flops() const;
};

/// kPairAdd temporaries both code generators keep in flight for
/// pair-style codes.
inline constexpr u32 kPairPipeline = 2;

/// Build the point schedule for `sc` with `chains` accumulator chains
/// (clamped to what the tap count supports). `pair_pipeline` controls how
/// many kPairAdd temporaries are kept in flight for pair-style codes.
Schedule make_schedule(const StencilCode& sc, u32 chains,
                       u32 pair_pipeline = kPairPipeline);

/// Default chain count heuristic for a code (enough to hide FPU latency
/// without exhausting registers).
u32 default_chains(const StencilCode& sc);

/// The FP opcode a step lowers to (shared by both code generators).
Op lower_step_op(StepKind k);

}  // namespace saris
