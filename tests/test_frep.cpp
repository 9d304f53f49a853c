// Unit tests: FREP sequencer — capture/replay counts of decoded queue
// entries, register staggering in both forms, and end-to-end FREP program
// behaviour.
#include <gtest/gtest.h>

#include <string>

#include "cluster/cluster.hpp"
#include "core/fp_op.hpp"
#include "core/frep.hpp"
#include "isa/builder.hpp"

namespace saris {
namespace {

/// The decoded queue entry of fadd.d f<rd>, f<a>, f<b>, as the fetch pass
/// enqueues and the sequencer captures it.
FpOp fadd(u8 rd, u8 a, u8 b) {
  Instr in;
  in.op = Op::kFaddD;
  in.frd = f(rd);
  in.frs1 = f(a);
  in.frs2 = f(b);
  return decode_fp_op(in);
}

TEST(FrepSequencer, CaptureThenReplayCount) {
  FrepSequencer s;
  s.start(/*reps=*/3, /*body_len=*/2);
  EXPECT_TRUE(s.capturing());
  s.capture(fadd(4, 5, 6));
  s.capture(fadd(7, 8, 9));
  EXPECT_FALSE(s.capturing());
  EXPECT_TRUE(s.replaying());
  // Two remaining iterations -> four injected instructions.
  u32 n = 0;
  FpOp q;
  while (s.replaying()) {
    s.next(q);
    EXPECT_EQ(q.dst.idx, n % 2 == 0 ? 4 : 7);
    ++n;
  }
  EXPECT_EQ(n, 4u);
  EXPECT_FALSE(s.busy());
}

TEST(FrepSequencer, SingleIterationReplaysNothing) {
  FrepSequencer s;
  s.start(1, 1);
  s.capture(fadd(4, 5, 6));
  EXPECT_FALSE(s.busy());
}

TEST(FrepSequencer, StaggerRotatesRegistersAboveBase) {
  FrepSequencer s;
  s.start(/*reps=*/4, /*body_len=*/1, /*stagger=*/2, /*stagger_base=*/10);
  s.capture(fadd(10, 9, 11));  // rd and rs2 above base, rs1 below
  // Iterations 1, 2, 3 -> offsets 1, 0, 1.
  FpOp i1, i2, i3;
  s.next(i1);
  EXPECT_EQ(i1.dst.idx, 11);
  EXPECT_EQ(i1.src[0].idx, 9);   // below base: untouched
  EXPECT_EQ(i1.src[1].idx, 12);
  s.next(i2);
  EXPECT_EQ(i2.dst.idx, 10);
  s.next(i3);
  EXPECT_EQ(i3.dst.idx, 11);
  EXPECT_FALSE(s.busy());
}

TEST(FrepSequencer, StaggerRotatesEveryFmaOperandAboveBase) {
  // fmadd.d f12, f10, f3, f14 with base f10: frd, frs1 and frs3 rotate,
  // frs2 sits below the base and stays.
  Instr in;
  in.op = Op::kFmaddD;
  in.frd = f(12);
  in.frs1 = f(10);
  in.frs2 = f(3);
  in.frs3 = f(14);
  FrepSequencer s;
  s.start(/*reps=*/4, /*body_len=*/1, /*stagger=*/2, /*stagger_base=*/10);
  s.capture(decode_fp_op(in));
  for (u8 off : {1, 0, 1}) {  // replay iterations 1, 2, 3
    FpOp q;
    s.next(q);
    ASSERT_EQ(q.nsrc, 3u);
    EXPECT_EQ(q.dst.idx, 12 + off);
    EXPECT_EQ(q.src[0].idx, 10 + off);
    EXPECT_EQ(q.src[1].idx, 3);
    EXPECT_EQ(q.src[2].idx, 14 + off);
  }
  EXPECT_FALSE(s.busy());
}

TEST(FrepSequencer, NoStaggerKeepsRegisters) {
  FrepSequencer s;
  s.start(2, 1);
  s.capture(fadd(20, 21, 22));
  FpOp i1;
  s.next(i1);
  EXPECT_EQ(i1.dst.idx, 20);
  EXPECT_EQ(i1.src[0].idx, 21);
}

TEST(FrepStagger, BothFormsRotateExactlyTheRegistersTheOpUses) {
  // Every FP op, with every register field at or above the base: the
  // instruction form and the decoded-entry form must rotate the same
  // registers, and the instruction form must leave unused fields alone.
  u32 ops = 0;
  for (const OpDesc& d : kOpTable) {
    if (!d.is_fp()) continue;
    ++ops;
    SCOPED_TRACE(std::string(d.name));
    Instr in;
    in.op = d.op;
    in.frd = f(12);
    in.frs1 = f(13);
    in.frs2 = f(14);
    in.frs3 = f(15);
    FpOp q = decode_fp_op(in);
    ASSERT_TRUE(stagger_rotate(in, /*base=*/10, /*off=*/2));
    ASSERT_TRUE(stagger_rotate(q, 10, 2));
    EXPECT_EQ(in.frd.idx, d.f_write ? 14 : 12);
    EXPECT_EQ(in.frs1.idx, d.f_reads & kSlot1 ? 15 : 13);
    EXPECT_EQ(in.frs2.idx, d.f_reads & kSlot2 ? 16 : 14);
    EXPECT_EQ(in.frs3.idx, d.f_reads & kSlot3 ? 17 : 15);
    const FpOp want = decode_fp_op(in);
    EXPECT_EQ(q.dst.idx, want.dst.idx);
    ASSERT_EQ(q.nsrc, want.nsrc);
    for (u32 k = 0; k < q.nsrc; ++k) EXPECT_EQ(q.src[k].idx, want.src[k].idx);
    // Past f31 both forms report it.
    Instr top;
    top.op = d.op;
    top.frd = top.frs1 = top.frs2 = top.frs3 = f(31);
    FpOp qtop = decode_fp_op(top);
    EXPECT_FALSE(stagger_rotate(top, 10, 1));
    EXPECT_FALSE(stagger_rotate(qtop, 10, 1));
  }
  EXPECT_EQ(ops, 9u);
}

TEST(FrepSequencerDeath, OversizeBodyAborts) {
  FrepSequencer s;
  EXPECT_DEATH(s.start(2, kFrepBufferDepth + 1), "exceeds buffer");
}

TEST(FrepSequencerDeath, ZeroRepsAborts) {
  FrepSequencer s;
  EXPECT_DEATH(s.start(0, 1), "zero repetitions");
}

TEST(FrepSequencerDeath, NonComputeBodyAborts) {
  FrepSequencer s;
  s.start(2, 1);
  Instr ld;
  ld.op = Op::kFld;
  EXPECT_DEATH(s.capture(decode_fp_op(ld)), "FP compute");
}

// ---- end-to-end on a core ----

Cycle run_core0(Cluster& cl, Program p) {
  for (u32 c = 1; c < cl.num_cores(); ++c) {
    ProgramBuilder b;
    b.halt();
    cl.core(c).load_program(b.build());
  }
  cl.core(0).load_program(std::move(p));
  const Cycle cycles = cl.run_until_halted();
  EXPECT_TRUE(cl.all_halted());
  return cycles;
}

TEST(Frep, ComputesRepeatedBody) {
  // f4 += 1.0, 32 times via FREP.
  Cluster cl;
  cl.tcdm().host_write_f64(0, 1.0);
  ProgramBuilder b;
  b.li(x(5), 0);
  b.fld(f(5), x(5), 0);  // 1.0
  b.li(x(6), 32);
  b.frep(x(6), 1);
  b.fadd_d(f(4), f(4), f(5));
  b.halt();
  run_core0(cl, b.build());
  EXPECT_DOUBLE_EQ(cl.core(0).freg(4), 32.0);
}

TEST(Frep, StaggeredAccumulatorsAreIndependent) {
  // Body writes a staggered accumulator (base f10, stagger 2): iterations
  // alternate f10/f11, each accumulating half the iterations.
  Cluster cl;
  cl.tcdm().host_write_f64(0, 1.0);
  ProgramBuilder b;
  b.li(x(5), 0);
  b.fld(f(5), x(5), 0);
  b.li(x(6), 10);
  b.frep(x(6), 1, /*stagger=*/2, /*stagger_base=*/10);
  b.fadd_d(f(10), f(10), f(5));
  b.halt();
  run_core0(cl, b.build());
  EXPECT_DOUBLE_EQ(cl.core(0).freg(10), 5.0);
  EXPECT_DOUBLE_EQ(cl.core(0).freg(11), 5.0);
}

TEST(Frep, FasterThanEquivalentBranchLoop) {
  // The same 200 independent FP ops: FREP variant avoids per-iteration
  // fetch of the branch/counter and must be faster.
  auto build_frep = [] {
    ProgramBuilder b;
    b.li(x(6), 100);
    b.frep(x(6), 2);
    b.fadd_d(f(4), f(4), f(5));
    b.fadd_d(f(6), f(6), f(5));
    b.halt();
    return b.build();
  };
  auto build_loop = [] {
    ProgramBuilder b;
    b.li(x(6), 100);
    b.li(x(5), 0);
    b.bind("loop");
    b.fadd_d(f(4), f(4), f(5));
    b.fadd_d(f(6), f(6), f(5));
    b.addi(x(5), x(5), 1);
    b.bne(x(5), x(6), "loop");
    b.halt();
    return b.build();
  };
  Cluster c1, c2;
  Cycle t_frep = run_core0(c1, build_frep());
  Cycle t_loop = run_core0(c2, build_loop());
  EXPECT_LT(t_frep, t_loop);
  // FREP should approach 1 op/cycle: ~200 cycles + small overhead.
  EXPECT_LT(t_frep, 260u);
  // The branch loop pays (addi + bne + penalty) per iteration.
  EXPECT_GT(t_loop, 380u);
}

TEST(Frep, SecondFrepWaitsForFirst) {
  Cluster cl;
  ProgramBuilder b;
  b.li(x(6), 20);
  b.frep(x(6), 1);
  b.fadd_d(f(4), f(4), f(5));
  b.frep(x(6), 1);
  b.fmul_d(f(6), f(6), f(6));
  b.halt();
  run_core0(cl, b.build());
  const CorePerf& p = cl.core(0).perf();
  EXPECT_EQ(p.fp_instrs, 40u);
  EXPECT_GT(p.stall_seq_busy, 0u);  // the second frep had to wait
}

}  // namespace
}  // namespace saris
