// Point-loop schedule generation (SARIS method step 4).
//
// A Schedule is the ordered list of abstract FP operations performing one
// point update: which taps/coefficients each op consumes and which
// accumulator chain it extends. Reassociation into `chains` independent
// accumulator chains hides FPU latency; the construction preserves the
// paper's Table 1 FLOP counts for any chain count. Both the baseline and
// the SARIS code generator lower the same Schedule, which is what makes the
// comparison apples-to-apples (same arithmetic, different memory access).
//
// kStepTable is the one definition of what a step computes, and
// lower_points the one walker that turns steps into FP instructions for
// both generators; each generator supplies only how a tap or coefficient
// reaches a register and where the point's value goes.
#pragma once

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "isa/builder.hpp"
#include "isa/opcode.hpp"
#include "stencil/stencil_def.hpp"

namespace saris {

enum class StepKind {
  kSeedMulTap,       // A[c]  = coeff * tap_a
  kSeedMulTapConst,  // A[c]  = coeff * tap_a + const_coeff
  kFmaTap,           // A[c] += coeff * tap_a
  kSeedAddTaps,      // A[c]  = tap_a + tap_b
  kAddTap,           // A[c] += tap_a
  kPairAdd,          // T     = tap_a + tap_b  (pushes a pair temporary)
  kSeedMulPair,      // A[c]  = coeff * T      (pops the oldest)
  kFmaPair,          // A[c] += coeff * T      (pops the oldest)
  kCombine,          // A[0] += A[c]
  kScale,            // A[0]  = coeff * A[0]
  kSubTap,           // A[0]  = A[0] - tap_a
};

/// Where a step takes an operand from or puts its result.
enum class Operand : u8 {
  kNone,    ///< slot unused
  kTapA,    ///< the step's tap_a
  kTapB,    ///< the step's tap_b
  kCoeff,   ///< the step's coefficient
  kConst,   ///< the constant term (Schedule::const_coeff)
  kChain,   ///< the step's accumulator chain
  kChain0,  ///< accumulator chain 0
  kPair,    ///< as an operand the oldest pair temporary, as a result a new one
};

/// What a step kind computes: its FP op, its result and the source of each
/// operand slot (rs1, rs2, rs3).
struct StepRow {
  StepKind kind;
  Op op;
  Operand dst;
  std::array<Operand, 3> src;
};

// clang-format off
inline constexpr std::array<StepRow, 11> kStepTable = {{
  {StepKind::kSeedMulTap, Op::kFmulD, Operand::kChain,
   {Operand::kCoeff, Operand::kTapA, Operand::kNone}},
  {StepKind::kSeedMulTapConst, Op::kFmaddD, Operand::kChain,
   {Operand::kCoeff, Operand::kTapA, Operand::kConst}},
  {StepKind::kFmaTap, Op::kFmaddD, Operand::kChain,
   {Operand::kCoeff, Operand::kTapA, Operand::kChain}},
  {StepKind::kSeedAddTaps, Op::kFaddD, Operand::kChain,
   {Operand::kTapA, Operand::kTapB, Operand::kNone}},
  {StepKind::kAddTap, Op::kFaddD, Operand::kChain,
   {Operand::kChain, Operand::kTapA, Operand::kNone}},
  {StepKind::kPairAdd, Op::kFaddD, Operand::kPair,
   {Operand::kTapA, Operand::kTapB, Operand::kNone}},
  {StepKind::kSeedMulPair, Op::kFmulD, Operand::kChain,
   {Operand::kCoeff, Operand::kPair, Operand::kNone}},
  {StepKind::kFmaPair, Op::kFmaddD, Operand::kChain,
   {Operand::kCoeff, Operand::kPair, Operand::kChain}},
  {StepKind::kCombine, Op::kFaddD, Operand::kChain0,
   {Operand::kChain0, Operand::kChain, Operand::kNone}},
  {StepKind::kScale, Op::kFmulD, Operand::kChain0,
   {Operand::kCoeff, Operand::kChain0, Operand::kNone}},
  {StepKind::kSubTap, Op::kFsubD, Operand::kChain0,
   {Operand::kChain0, Operand::kTapA, Operand::kNone}},
}};
// clang-format on

constexpr bool step_table_in_order() {
  for (std::size_t i = 0; i < kStepTable.size(); ++i) {
    if (static_cast<std::size_t>(kStepTable[i].kind) != i) return false;
  }
  return true;
}
static_assert(step_table_in_order(),
              "kStepTable row i must describe StepKind(i)");

/// The table row of `k` (a valid enumerator).
constexpr const StepRow& step_row(StepKind k) {
  return kStepTable[static_cast<std::size_t>(k)];
}

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
  i32 const_coeff = -1;  ///< coefficient of the constant term; -1 if none

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

/// Where lower_points puts the registers of point instance u: its logical
/// register L (the chains, then the pair temporaries) is
/// f(reg0 + u * per_instance + L * stride).
struct PointRegs {
  u8 reg0 = 0;
  u32 per_instance = 0;
  u32 stride = 1;  ///< 1, or the FREP stagger depth
};

/// Lower point instances [first, first + count) of `s` and merge them
/// round-robin (instruction i of every instance, then instruction i + 1),
/// which spaces the dependent ops of one point by the instance count.
/// Each step sources its operands last slot first, then its result, so the
/// loads a source emits come in that order. `src` is what the generator
/// owns, called with the instance u and that instance's sequence:
///   FReg tap(u, step, tap, seq)       a tap's register
///   FReg coeff(u, coeff, seq)         a coefficient's register
///   void push(u, op, final_out, seq)  append the op; a final one also
///                                     delivers the point's value
/// A source may append instructions of its own (a load) before the op.
template <typename Sources>
std::vector<typename Sources::Item> lower_points(const Schedule& s, u32 first,
                                                 u32 count,
                                                 const PointRegs& regs,
                                                 Sources& src) {
  using Item = typename Sources::Item;
  std::vector<std::vector<Item>> per(count);
  for (u32 u = first; u < first + count; ++u) {
    std::vector<Item>& seq = per[u - first];
    auto logical = [&](u32 l) {
      return f(static_cast<u8>(regs.reg0 + u * regs.per_instance +
                               l * regs.stride));
    };
    // Pair temporaries rotate through tmp_regs registers, so the i-th one
    // taken is the i-th one consumed.
    u32 pushed = 0;
    u32 popped = 0;
    auto pair = [&](u32 i) {
      return logical(s.chains + i % std::max<u32>(1, s.tmp_regs));
    };
    for (const Step& st : s.steps) {
      auto source = [&](Operand o) {
        switch (o) {
          case Operand::kNone:
            return FReg{};
          case Operand::kTapA:
            return src.tap(u, st, st.tap_a, seq);
          case Operand::kTapB:
            return src.tap(u, st, st.tap_b, seq);
          case Operand::kCoeff:
            SARIS_CHECK(st.coeff >= 0, "missing coefficient");
            return src.coeff(u, st.coeff, seq);
          case Operand::kConst:
            SARIS_CHECK(s.const_coeff >= 0, "missing constant term");
            return src.coeff(u, s.const_coeff, seq);
          case Operand::kChain:
            SARIS_CHECK(st.chain >= 0 && st.chain < static_cast<i32>(s.chains),
                        "bad chain");
            return logical(static_cast<u32>(st.chain));
          case Operand::kChain0:
            return logical(0);
          case Operand::kPair:
            SARIS_CHECK(popped < pushed, "pair consume without producer");
            return pair(popped++);
        }
        SARIS_CHECK(false, "bad operand");
      };
      const StepRow& row = step_row(st.kind);
      std::array<FReg, 3> ops;
      for (u32 k = 3; k-- > 0;) ops[k] = source(row.src[k]);  // last first
      const FReg dst =
          row.dst == Operand::kPair ? pair(pushed++) : source(row.dst);
      src.push(u, fp4(row.op, dst, ops[0], ops[1], ops[2]), st.final_out,
               seq);
    }
  }
  std::vector<Item> merged;
  std::size_t longest = 0;
  for (const auto& seq : per) longest = std::max(longest, seq.size());
  for (std::size_t i = 0; i < longest; ++i) {
    for (auto& seq : per) {
      if (i < seq.size()) merged.push_back(std::move(seq[i]));
    }
  }
  return merged;
}

}  // namespace saris
