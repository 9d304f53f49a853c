// ProgramBuilder: a tiny assembler DSL used by the code generators.
//
// Branches may reference labels that are bound later; `build()` resolves all
// references and verifies the program is well-formed.
#pragma once

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "isa/program.hpp"

namespace saris {

class ProgramBuilder {
 public:
  // ---- labels ----
  void bind(const std::string& label);

  // ---- integer ALU ----
  void addi(XReg rd, XReg rs1, i32 imm);
  void add(XReg rd, XReg rs1, XReg rs2);
  void sub(XReg rd, XReg rs1, XReg rs2);
  void lui(XReg rd, i32 imm20);
  void slli(XReg rd, XReg rs1, i32 sh);
  void srli(XReg rd, XReg rs1, i32 sh);
  void andi(XReg rd, XReg rs1, i32 imm);
  void mul(XReg rd, XReg rs1, XReg rs2);
  /// Pseudo: materialize a 32-bit constant (1 or 2 instructions).
  void li(XReg rd, i32 value);
  /// Pseudo: register move (addi rd, rs, 0).
  void mv(XReg rd, XReg rs);

  // ---- integer memory ----
  void lw(XReg rd, XReg base, i32 offs);
  void sw(XReg src, XReg base, i32 offs);
  void lh(XReg rd, XReg base, i32 offs);
  void sh(XReg src, XReg base, i32 offs);

  // ---- control flow ----
  void beq(XReg rs1, XReg rs2, const std::string& label);
  void bne(XReg rs1, XReg rs2, const std::string& label);
  void blt(XReg rs1, XReg rs2, const std::string& label);
  void bge(XReg rs1, XReg rs2, const std::string& label);
  void j(const std::string& label);
  void halt();

  // ---- FP ----
  void fadd_d(FReg rd, FReg a, FReg b);
  void fsub_d(FReg rd, FReg a, FReg b);
  void fmul_d(FReg rd, FReg a, FReg b);
  void fmadd_d(FReg rd, FReg a, FReg b, FReg c);   // rd = a*b + c
  void fmsub_d(FReg rd, FReg a, FReg b, FReg c);   // rd = a*b - c
  void fnmsub_d(FReg rd, FReg a, FReg b, FReg c);  // rd = -(a*b) + c
  void fmv_d(FReg rd, FReg src);
  void fld(FReg rd, XReg base, i32 offs);
  void fsd(FReg src, XReg base, i32 offs);

  // ---- Snitch extensions ----
  /// frep.o: repeat the following `body_len` FP instructions, number of
  /// repetitions taken from integer register `reps`. `stagger` > 1 rotates
  /// FP register operands with index >= `stagger_base` by (iteration %
  /// stagger) on replay (Snitch frep register staggering). Aborts unless
  /// frep_body_len_ok(body_len) and frep_stagger_ok(stagger) (isa/instr.hpp).
  void frep(XReg reps, i32 body_len, u32 stagger = 1, u32 stagger_base = 32);
  /// scfgwi: write config word `word` of SSR lane `lane` with value xrs1.
  void scfgwi(XReg value, u32 lane, u32 word);
  void ssr_enable();
  void ssr_disable();

  // ---- runtime ----
  void barrier();
  void csrr_cycle(XReg rd);
  /// High 32 bits of the cycle counter: read cycleh, cycle, cycleh again and
  /// retry on mismatch for a wrap-safe 64-bit timestamp (RV32 idiom).
  void csrr_cycleh(XReg rd);
  void nop();

  /// Emit a pre-built instruction (used by code generators that lower FP
  /// bodies outside the builder). Must not be a branch (targets would not
  /// be label-resolved).
  void raw(const Instr& in);

  /// Current instruction index (next emitted instruction's position).
  u32 here() const { return static_cast<u32>(instrs_.size()); }

  /// Resolve labels and return the finished program.
  Program build();

 private:
  Instr& emit(Op op);
  void branch(Op op, XReg rs1, XReg rs2, const std::string& label);

  std::vector<Instr> instrs_;
  std::unordered_map<std::string, u32> labels_;
  struct Fixup {
    u32 instr_idx;
    std::string label;
  };
  std::vector<Fixup> fixups_;
};

// ---- helpers shared by the code generators ----

/// r += v for an arbitrary 32-bit displacement, as addi in imm12 chunks
/// (the generators' displacements are at most a plane pitch, i.e. <= 2
/// chunks).
inline void add_disp(ProgramBuilder& b, XReg r, i32 v) {
  while (v != 0) {
    i32 step = std::clamp(v, -2048, 2047);
    b.addi(r, r, step);
    v -= step;
  }
}

/// An FP instruction `op rd, a, br`, built outside the builder (emit it
/// with ProgramBuilder::raw).
inline Instr fp3(Op op, FReg rd, FReg a, FReg br) {
  Instr in;
  in.op = op;
  in.frd = rd;
  in.frs1 = a;
  in.frs2 = br;
  return in;
}

/// A fused FP instruction `op rd, a, bb, c`.
inline Instr fp4(Op op, FReg rd, FReg a, FReg bb, FReg c) {
  Instr in = fp3(op, rd, a, bb);
  in.frs3 = c;
  return in;
}

}  // namespace saris
