// Unit tests: ISA IR — builder, label resolution, constant materialization,
// instruction-mix accounting, frep encoding, disassembly.
#include <gtest/gtest.h>

#include "isa/builder.hpp"
#include "isa/disasm.hpp"
#include "ssr/ssr_config.hpp"

namespace saris {
namespace {

TEST(Opcode, ClassesAndNames) {
  EXPECT_EQ(op_class(Op::kAddi), OpClass::kInt);
  EXPECT_EQ(op_class(Op::kLw), OpClass::kIntMem);
  EXPECT_EQ(op_class(Op::kBne), OpClass::kBranch);
  EXPECT_EQ(op_class(Op::kFmaddD), OpClass::kFpCompute);
  EXPECT_EQ(op_class(Op::kFld), OpClass::kFpMem);
  EXPECT_EQ(op_class(Op::kFrep), OpClass::kSys);
  EXPECT_EQ(op_name(Op::kFmaddD), "fmadd.d");
}

TEST(Opcode, FlopAccounting) {
  EXPECT_EQ(flops_of(Op::kFaddD), 1u);
  EXPECT_EQ(flops_of(Op::kFmulD), 1u);
  EXPECT_EQ(flops_of(Op::kFmaddD), 2u);
  EXPECT_EQ(flops_of(Op::kFnmsubD), 2u);
  EXPECT_EQ(flops_of(Op::kFld), 0u);
  EXPECT_EQ(flops_of(Op::kFsgnjD), 0u);
  EXPECT_TRUE(is_useful_fpu_op(Op::kFsubD));
  EXPECT_FALSE(is_useful_fpu_op(Op::kFsd));
}

TEST(Opcode, FpOpPredicate) {
  EXPECT_TRUE(is_fp_op(Op::kFld));
  EXPECT_TRUE(is_fp_op(Op::kFmulD));
  EXPECT_FALSE(is_fp_op(Op::kAddi));
  EXPECT_FALSE(is_fp_op(Op::kFrep));
}

TEST(Opcode, EvaluatorsFollowRv32) {
  EXPECT_EQ(int_alu(Op::kAddi, 5, 0, -8), static_cast<u32>(-3));
  EXPECT_EQ(int_alu(Op::kLui, 0, 0, 0x12), 0x12000u);
  EXPECT_EQ(int_alu(Op::kSrli, 0x80000000u, 0, 31), 1u);  // logical
  EXPECT_EQ(int_alu(Op::kMul, 7, 6, 0), 42u);
  EXPECT_TRUE(branch_taken(Op::kBlt, static_cast<u32>(-1), 0));  // signed
  EXPECT_FALSE(branch_taken(Op::kBge, static_cast<u32>(-1), 0));
  EXPECT_TRUE(branch_taken(Op::kJal, 0, 1));
  EXPECT_EQ(fp_alu(Op::kFnmsubD, 2.0, 3.0, 1.0), -5.0);
  EXPECT_EQ(fp_alu(Op::kFmsubD, 2.0, 3.0, 1.0), 5.0);
  EXPECT_EQ(fp_alu(Op::kFsgnjD, 7.0, 0.0, 0.0), 7.0);
}

TEST(Opcode, OperandAndMemoryColumns) {
  EXPECT_EQ(op_desc(Op::kFsd).f_reads, kSlot2);  // store data
  EXPECT_FALSE(op_desc(Op::kFsd).f_write);
  EXPECT_EQ(op_desc(Op::kFmaddD).f_reads, kSlot1 | kSlot2 | kSlot3);
  EXPECT_EQ(op_desc(Op::kLui).x_reads, 0);
  EXPECT_EQ(op_desc(Op::kLh).mem_bytes, 2);
  EXPECT_EQ(op_desc(Op::kSw).mem, MemDir::kStore);
  EXPECT_EQ(op_desc(Op::kFld).mem_bytes, 8);
  EXPECT_EQ(op_desc(Op::kFsgnjD).lat, FpLat::kMove);
  EXPECT_TRUE(op_desc(Op::kFsgnjD).frep_body);
  EXPECT_FALSE(op_desc(Op::kFld).frep_body);
}

TEST(Builder, BackwardBranchResolves) {
  ProgramBuilder b;
  b.bind("loop");
  b.addi(x(5), x(5), 1);
  b.bne(x(5), x(6), "loop");
  b.halt();
  Program p = b.build();
  EXPECT_EQ(p.at(1).target, 0u);
}

TEST(Builder, ForwardBranchResolves) {
  ProgramBuilder b;
  b.beq(x(5), x(6), "done");
  b.addi(x(5), x(5), 1);
  b.bind("done");
  b.halt();
  Program p = b.build();
  EXPECT_EQ(p.at(0).target, 2u);
}

TEST(Builder, LiSmallIsSingleAddi) {
  ProgramBuilder b;
  b.li(x(5), 42);
  b.halt();
  Program p = b.build();
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p.at(0).op, Op::kAddi);
  EXPECT_EQ(p.at(0).imm, 42);
}

TEST(Builder, LiLargeUsesLuiAddi) {
  ProgramBuilder b;
  b.li(x(5), 0x12345);
  b.halt();
  Program p = b.build();
  ASSERT_EQ(p.size(), 3u);
  EXPECT_EQ(p.at(0).op, Op::kLui);
  EXPECT_EQ(p.at(1).op, Op::kAddi);
  // lui(hi) + addi(lo) must reconstruct the constant.
  i32 v = (p.at(0).imm << 12) + p.at(1).imm;
  EXPECT_EQ(v, 0x12345);
}

class LiRoundTrip : public ::testing::TestWithParam<i32> {};

TEST_P(LiRoundTrip, Reconstructs) {
  i32 value = GetParam();
  ProgramBuilder b;
  b.li(x(5), value);
  b.halt();
  Program p = b.build();
  u32 acc = 0;  // wrapping RV32 arithmetic, as the core computes it
  for (u32 i = 0; i < p.size() - 1; ++i) {
    const Instr& in = p.at(i);
    ASSERT_TRUE(in.op == Op::kLui || in.op == Op::kAddi) << op_name(in.op);
    acc = int_alu(in.op, acc, 0, in.imm);
  }
  EXPECT_EQ(static_cast<i32>(acc), value);
}

INSTANTIATE_TEST_SUITE_P(Values, LiRoundTrip,
                         ::testing::Values(0, 1, -1, 2047, -2048, 2048, -2049,
                                           0x7FF, 0x800, 0xFFF, 0x1000,
                                           131071, -131072, 0x0001FFF8,
                                           0x7FFFFFFF, -2147483647));

TEST(Builder, FrepImmEncoding) {
  ProgramBuilder b;
  b.li(x(5), 4);
  b.frep(x(5), 3, 2, 10);
  b.fadd_d(f(11), f(12), f(13));
  b.fmul_d(f(11), f(12), f(13));
  b.fmadd_d(f(11), f(12), f(13), f(14));
  b.halt();
  Program p = b.build();
  const Instr& fr = p.at(1);
  EXPECT_EQ(frep_body_len(fr.imm), 3u);
  EXPECT_EQ(frep_stagger(fr.imm), 2u);
  EXPECT_EQ(frep_stagger_base(fr.imm), 10u);
}

TEST(BuilderDeath, FrepBodyMustBeFp) {
  ProgramBuilder b;
  b.frep(x(5), 2);
  b.fadd_d(f(11), f(12), f(13));
  b.addi(x(6), x(6), 1);  // not FP
  b.halt();
  EXPECT_DEATH(b.build(), "not an FP op");
}

TEST(BuilderDeath, FrepBodyRejectsFpMemory) {
  // The sequencer replays FP compute only; the core, the FREP sequencer
  // and the verifier reject fld/fsd in a body too.
  ProgramBuilder b;
  b.frep(x(5), 1);
  b.fld(f(4), x(6), 0);
  b.halt();
  EXPECT_DEATH(b.build(), "not an FP op");
}

TEST(BuilderDeath, FrepBodyLongerThanBufferAborts) {
  ProgramBuilder b;
  b.frep(x(5), static_cast<i32>(kFrepBufferDepth));  // the largest legal body
  EXPECT_DEATH(b.frep(x(5), static_cast<i32>(kFrepBufferDepth) + 1),
               "frep body length 17 outside");
  EXPECT_DEATH(b.frep(x(5), 0), "frep body length 0 outside");
  EXPECT_DEATH(b.frep(x(5), 1, kFrepMaxStagger + 1), "frep stagger 9 outside");
}

TEST(BuilderDeath, UnresolvedLabelAborts) {
  ProgramBuilder b;
  b.bne(x(5), x(6), "nowhere");
  EXPECT_DEATH(b.build(), "unresolved label");
}

TEST(BuilderDeath, ImmediateRangeChecked) {
  ProgramBuilder b;
  EXPECT_DEATH(b.addi(x(5), x(5), 5000), "out of range");
  EXPECT_DEATH(b.fld(f(5), x(5), -3000), "out of range");
}

TEST(BuilderDeath, RawRejectsBranches) {
  ProgramBuilder b;
  Instr in;
  in.op = Op::kBne;
  EXPECT_DEATH(b.raw(in), "branches");
}

TEST(Program, MixCountsCategories) {
  ProgramBuilder b;
  b.addi(x(5), x(5), 1);   // int
  b.lw(x(6), x(5), 0);     // int mem
  b.fld(f(4), x(5), 0);    // fp mem
  b.fmadd_d(f(5), f(4), f(4), f(5));  // fp compute
  b.fmv_d(f(6), f(5));     // move: sys bucket
  b.bne(x(5), x(6), "end");
  b.bind("end");
  b.halt();
  Program::Mix m = b.build().mix();
  EXPECT_EQ(m.total, 7u);
  EXPECT_EQ(m.int_alu, 1u);
  EXPECT_EQ(m.int_mem, 1u);
  EXPECT_EQ(m.fp_mem, 1u);
  EXPECT_EQ(m.fp_compute, 1u);
  EXPECT_EQ(m.branch, 1u);
  EXPECT_EQ(m.sys, 2u);  // fmv + halt
}

TEST(Program, MixRange) {
  ProgramBuilder b;
  b.fadd_d(f(4), f(5), f(6));
  b.fadd_d(f(4), f(5), f(6));
  b.halt();
  Program p = b.build();
  EXPECT_EQ(p.mix(0, 1).fp_compute, 1u);
  EXPECT_EQ(p.mix(1, 2).fp_compute, 1u);
}

TEST(Program, LabelLookup) {
  ProgramBuilder b;
  b.nop();
  b.bind("here");
  b.halt();
  Program p = b.build();
  EXPECT_TRUE(p.has_label("here"));
  EXPECT_EQ(p.label("here"), 1u);
  EXPECT_FALSE(p.has_label("gone"));
}

TEST(Disasm, FormatsCoreOps) {
  ProgramBuilder b;
  b.addi(x(5), x(6), -8);
  b.fmadd_d(f(4), f(0), f(1), f(4));
  b.fld(f(7), x(5), 16);
  b.frep(x(6), 2, 3, 8);
  b.fadd_d(f(9), f(9), f(10));
  b.fadd_d(f(9), f(9), f(10));
  b.halt();
  Program p = b.build();
  EXPECT_EQ(disasm(p.at(0)), "addi x5, x6, -8");
  EXPECT_EQ(disasm(p.at(1)), "fmadd.d f4, ft0, ft1, f4");
  EXPECT_EQ(disasm(p.at(2)), "fld f7, 16(x5)");
  EXPECT_EQ(disasm(p.at(3)), "frep.o x6, body=2, stagger=3@f8");
  // Whole-program disassembly emits one line per instruction.
  std::string all = disasm(p);
  EXPECT_EQ(std::count(all.begin(), all.end(), '\n'),
            static_cast<long>(p.size()));
}

TEST(Disasm, FormatsEveryOperandShape) {
  ProgramBuilder b;
  b.lui(x(3), 5);
  b.sub(x(4), x(5), x(6));
  b.lh(x(7), x(8), -2);
  b.sw(x(7), x(5), 12);
  b.fsd(f(3), x(5), -8);
  b.fmv_d(f(9), f(2));
  b.scfgwi(x(9), 1, kSsrLaunchRead);
  b.csrr_cycleh(x(4));
  b.bind("end");
  b.j("end");
  b.ssr_enable();
  b.halt();
  Program p = b.build();
  EXPECT_EQ(disasm(p.at(0)), "lui x3, 5");
  EXPECT_EQ(disasm(p.at(1)), "sub x4, x5, x6");
  EXPECT_EQ(disasm(p.at(2)), "lh x7, -2(x8)");
  EXPECT_EQ(disasm(p.at(3)), "sw x7, 12(x5)");
  EXPECT_EQ(disasm(p.at(4)), "fsd f3, -8(x5)");
  EXPECT_EQ(disasm(p.at(5)), "fmv.d f9, ft2");
  EXPECT_EQ(disasm(p.at(6)), "scfgwi x9, lane=1, word=16");
  EXPECT_EQ(disasm(p.at(7)), "csrr.cycleh x4");
  EXPECT_EQ(disasm(p.at(8)), "jal @8");
  EXPECT_EQ(disasm(p.at(9)), "ssr_en ");
  EXPECT_EQ(disasm(p.at(10)), "halt ");
}

}  // namespace
}  // namespace saris
