// Instruction IR: one record per instruction, fields used depend on opcode.
#pragma once

#include "isa/opcode.hpp"
#include "isa/reg.hpp"

namespace saris {

/// One IR instruction. Branch targets are program indices (resolved labels).
struct Instr {
  Op op = Op::kNop;
  // Integer operands.
  XReg rd{};   ///< int destination (kAddi, kLw, ...)
  XReg rs1{};  ///< int source 1 / address base / frep rep count / scfgwi value
  XReg rs2{};  ///< int source 2 / store data
  // FP operands.
  FReg frd{};   ///< FP destination
  FReg frs1{};  ///< FP source 1
  FReg frs2{};  ///< FP source 2
  FReg frs3{};  ///< FP source 3 (FMA family)
  /// Immediate: ALU immediate, memory offset (bytes), frep encoding (see
  /// below), or scfgwi selector (lane*256 + config word index).
  i32 imm = 0;
  /// Branch/jump target as program index (filled by label resolution).
  u32 target = 0;
};

/// Visit the integer registers `in` reads (OpDesc::x_reads), rs1 first.
template <typename Fn>
void for_each_x_read(const Instr& in, Fn&& fn) {
  const u8 m = op_desc(in.op).x_reads;
  if (m & kSlot1) fn(in.rs1);
  if (m & kSlot2) fn(in.rs2);
}

/// Visit the FP registers `in` reads (OpDesc::f_reads) in operand order —
/// the order the FPU reads them, so a stream register named twice pops
/// twice.
template <typename Fn>
void for_each_fp_read(const Instr& in, Fn&& fn) {
  const u8 m = op_desc(in.op).f_reads;
  if (m & kSlot1) fn(in.frs1);
  if (m & kSlot2) fn(in.frs2);
  if (m & kSlot3) fn(in.frs3);
}

/// frep immediate encoding: body length [7:0], stagger count [15:8],
/// stagger base register [23:16].
inline u32 frep_body_len(i32 imm) { return static_cast<u32>(imm) & 0xFF; }
inline u32 frep_stagger(i32 imm) {
  return (static_cast<u32>(imm) >> 8) & 0xFF;
}
inline u32 frep_stagger_base(i32 imm) {
  return (static_cast<u32>(imm) >> 16) & 0xFF;
}

/// FREP limits, the one definition the builder, the sequencer and the
/// verifier test against: a body is 1..kFrepBufferDepth
/// instructions (the sequence buffer), a stagger count 1..kFrepMaxStagger.
inline constexpr u32 kFrepBufferDepth = 16;
inline constexpr u32 kFrepMaxStagger = 8;
inline bool frep_body_len_ok(u32 n) { return n >= 1 && n <= kFrepBufferDepth; }
inline bool frep_stagger_ok(u32 s) { return s >= 1 && s <= kFrepMaxStagger; }

}  // namespace saris
