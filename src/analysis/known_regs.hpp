// The known-bits integer stepper of the abstract interpreter (absint).
//
// Generated kernels compute every address, trip count and scfgwi operand
// from compile-time constants, so the walk executes the integer stream on
// concrete values and track, per register, whether the value is static.
// Results come from the opcode table's evaluators (isa/opcode.hpp); a value
// is known when every source it reads is. Loaded data and rdcycle are
// runtime values and always unknown.
#pragma once

#include <array>

#include "isa/instr.hpp"

namespace saris {

class KnownRegs {
 public:
  bool known(XReg r) const { return (known_ >> r.idx) & 1u; }
  u32 value(XReg r) const { return x_[r.idx]; }

  /// Every integer register `in` reads (OpDesc::x_reads) is known.
  bool sources_known(const Instr& in) const {
    bool k = true;
    for_each_x_read(in, [&](XReg r) { k = k && known(r); });
    return k;
  }

  /// rs1 + imm: the effective address of a load/store.
  Addr address(const Instr& in) const {
    return x_[in.rs1.idx] + static_cast<u32>(in.imm);
  }

  /// Write `in`'s integer result, if it has one: ALU ops through int_alu,
  /// known when their sources are; loads and rdcycle become unknown.
  void retire(const Instr& in) {
    const OpDesc& d = op_desc(in.op);
    if (!d.x_write || in.rd.idx == 0) return;
    const bool alu = d.cls == OpClass::kInt;
    x_[in.rd.idx] =
        alu ? int_alu(in.op, x_[in.rs1.idx], x_[in.rs2.idx], in.imm) : 0;
    if (alu && sources_known(in)) {
      known_ |= 1u << in.rd.idx;
    } else {
      known_ &= ~(1u << in.rd.idx);
    }
  }

  /// Make `r` known with value `v`: the result of an accelerated loop.
  void set(XReg r, u32 v) {
    x_[r.idx] = v;
    known_ |= 1u << r.idx;
  }

  enum class Branch : u8 { kFallThrough, kTaken, kUnknown };

  /// Outcome of a kBranch op; kUnknown when its condition reads a runtime
  /// value.
  Branch branch(const Instr& in) const {
    if (!sources_known(in)) return Branch::kUnknown;
    return branch_taken(in.op, x_[in.rs1.idx], x_[in.rs2.idx])
               ? Branch::kTaken
               : Branch::kFallThrough;
  }

 private:
  std::array<u32, kNumXRegs> x_{};
  u32 known_ = ~0u;  ///< registers are zeroed at reset
};

}  // namespace saris
