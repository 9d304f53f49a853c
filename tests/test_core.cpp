// Unit tests: the Snitch-like core — integer semantics, branch timing, FP
// offload behaviour, FP load/store, SSR register mapping, halt draining.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "core/fp_op.hpp"
#include "isa/builder.hpp"
#include "ssr/ssr_config.hpp"

namespace saris {
namespace {

/// One-core rig: run a program on core 0 of a cluster until it halts.
Cycle run_on_core0(Cluster& cl, Program p, Cycle max_cycles = 100000) {
  // Other cores get a trivial program so the cluster can halt.
  for (u32 c = 1; c < cl.num_cores(); ++c) {
    ProgramBuilder b;
    b.halt();
    cl.core(c).load_program(b.build());
  }
  cl.core(0).load_program(std::move(p));
  const Cycle cycles = cl.run_until_halted(max_cycles);
  EXPECT_TRUE(cl.all_halted());
  return cycles;
}

TEST(Core, IntegerAluSemantics) {
  Cluster cl;
  ProgramBuilder b;
  b.li(x(5), 10);
  b.li(x(6), 3);
  b.add(x(7), x(5), x(6));
  b.sub(x(8), x(5), x(6));
  b.slli(x(9), x(6), 2);
  b.srli(x(10), x(5), 1);
  b.andi(x(11), x(5), 6);
  b.mul(x(12), x(5), x(6));
  b.lui(x(13), 5);
  b.halt();
  run_on_core0(cl, b.build());
  Core& c = cl.core(0);
  EXPECT_EQ(c.xreg(7), 13u);
  EXPECT_EQ(c.xreg(8), 7u);
  EXPECT_EQ(c.xreg(9), 12u);
  EXPECT_EQ(c.xreg(10), 5u);
  EXPECT_EQ(c.xreg(11), 2u);
  EXPECT_EQ(c.xreg(12), 30u);
  EXPECT_EQ(c.xreg(13), 5u << 12);
}

TEST(Core, X0IsHardwiredZero) {
  Cluster cl;
  ProgramBuilder b;
  b.addi(x(0), x(0), 5);
  b.add(x(5), x(0), x(0));
  b.halt();
  run_on_core0(cl, b.build());
  EXPECT_EQ(cl.core(0).xreg(0), 0u);
  EXPECT_EQ(cl.core(0).xreg(5), 0u);
}

TEST(Core, BranchesAndLoop) {
  Cluster cl;
  ProgramBuilder b;
  b.li(x(5), 0);
  b.li(x(6), 10);
  b.bind("loop");
  b.addi(x(5), x(5), 1);
  b.bne(x(5), x(6), "loop");
  b.halt();
  run_on_core0(cl, b.build());
  EXPECT_EQ(cl.core(0).xreg(5), 10u);
}

TEST(Core, TakenBranchCostsPenalty) {
  // A loop body of two instructions: N iterations cost about
  // N * (2 + penalty) cycles; an untaken-branch epilogue costs 1.
  Cluster cl;
  ProgramBuilder b;
  b.li(x(5), 0);
  b.li(x(6), 50);
  b.bind("loop");
  b.addi(x(5), x(5), 1);
  b.bne(x(5), x(6), "loop");
  b.halt();
  Cycle cycles = run_on_core0(cl, b.build());
  // 50 iterations: 49 taken (cost 2 + 2) + 1 untaken (cost 2) + setup.
  EXPECT_NEAR(static_cast<double>(cycles),
              49 * (2.0 + kBranchPenaltyCycles) + 2 + 2 + 2, 16.0);
}

TEST(Core, IntLoadStore) {
  Cluster cl;
  ProgramBuilder b;
  b.li(x(5), 256);      // address
  b.li(x(6), -7);
  b.sw(x(6), x(5), 0);
  b.lw(x(7), x(5), 0);
  b.li(x(8), 513);
  b.sh(x(8), x(5), 8);
  b.lh(x(9), x(5), 8);
  b.halt();
  run_on_core0(cl, b.build());
  EXPECT_EQ(static_cast<i32>(cl.core(0).xreg(7)), -7);
  EXPECT_EQ(cl.core(0).xreg(9), 513u);
}

TEST(Core, LhSignExtends) {
  Cluster cl;
  ProgramBuilder b;
  b.li(x(5), 64);
  b.li(x(6), -2);  // 0xFFFE
  b.sh(x(6), x(5), 0);
  b.lh(x(7), x(5), 0);
  b.halt();
  run_on_core0(cl, b.build());
  EXPECT_EQ(static_cast<i32>(cl.core(0).xreg(7)), -2);
}

TEST(Core, FpComputeSemantics) {
  Cluster cl;
  cl.tcdm().host_write_f64(0, 1.5);
  cl.tcdm().host_write_f64(8, 2.0);
  cl.tcdm().host_write_f64(16, -4.0);
  ProgramBuilder b;
  b.li(x(5), 0);
  b.fld(f(4), x(5), 0);
  b.fld(f(5), x(5), 8);
  b.fld(f(6), x(5), 16);
  b.fadd_d(f(7), f(4), f(5));          // 3.5
  b.fsub_d(f(8), f(4), f(5));          // -0.5
  b.fmul_d(f(9), f(4), f(5));          // 3.0
  b.fmadd_d(f(10), f(4), f(5), f(6));  // 1.5*2 + -4 = -1
  b.fmsub_d(f(11), f(4), f(5), f(6));  // 3 - -4 = 7
  b.fnmsub_d(f(12), f(4), f(5), f(6)); // -3 + -4 = -7
  b.fmv_d(f(13), f(7));
  b.fsd(f(10), x(5), 24);
  b.halt();
  run_on_core0(cl, b.build());
  Core& c = cl.core(0);
  EXPECT_DOUBLE_EQ(c.freg(7), 3.5);
  EXPECT_DOUBLE_EQ(c.freg(8), -0.5);
  EXPECT_DOUBLE_EQ(c.freg(9), 3.0);
  EXPECT_DOUBLE_EQ(c.freg(10), -1.0);
  EXPECT_DOUBLE_EQ(c.freg(11), 7.0);
  EXPECT_DOUBLE_EQ(c.freg(12), -7.0);
  EXPECT_DOUBLE_EQ(c.freg(13), 3.5);
  EXPECT_DOUBLE_EQ(cl.tcdm().host_read_f64(24), -1.0);
}

TEST(Core, HaltWaitsForFpuDrain) {
  // The final fsd must land in memory even though halt follows directly.
  Cluster cl;
  cl.tcdm().host_write_f64(0, 2.0);
  ProgramBuilder b;
  b.li(x(5), 0);
  b.fld(f(4), x(5), 0);
  b.fmul_d(f(4), f(4), f(4));
  b.fsd(f(4), x(5), 8);
  b.halt();
  run_on_core0(cl, b.build());
  EXPECT_DOUBLE_EQ(cl.tcdm().host_read_f64(8), 4.0);
}

TEST(Core, PseudoDualIssueOverlapsIntAndFp) {
  // With FREP, integer instructions retire while the FPU replays: the
  // total cycle count is far below the sum of both instruction streams.
  Cluster cl;
  ProgramBuilder b;
  b.li(x(6), 400);  // frep reps
  b.li(x(5), 0);
  b.li(x(7), 100);
  b.frep(x(6), 2);
  b.fadd_d(f(4), f(4), f(5));
  b.fmul_d(f(6), f(6), f(6));
  // Integer work that runs concurrently with the 800 replayed FP ops.
  b.bind("iloop");
  b.addi(x(5), x(5), 1);
  b.bne(x(5), x(7), "iloop");
  b.halt();
  Cycle cycles = run_on_core0(cl, b.build());
  const CorePerf& p = cl.core(0).perf();
  EXPECT_EQ(p.fp_instrs, 800u);
  EXPECT_GT(p.int_instrs, 100u);
  // IPC above 1: both units retired work in the same window.
  double ipc = static_cast<double>(p.total_instrs()) /
               static_cast<double>(cycles);
  EXPECT_GT(ipc, 1.1);
}

TEST(Core, CsrrCycleIsMonotone) {
  Cluster cl;
  ProgramBuilder b;
  b.csrr_cycle(x(5));
  b.nop();
  b.nop();
  b.csrr_cycle(x(6));
  b.halt();
  run_on_core0(cl, b.build());
  EXPECT_GT(cl.core(0).xreg(6), cl.core(0).xreg(5));
}

TEST(Core, CsrrCycleHighReadsUpperWord) {
  // Past 2^32 cycles the low word wraps; cycle/cycleh together give the
  // full 64-bit count. Drive a bare core so `now` can start beyond 2^32.
  Tcdm tcdm;
  Barrier bar(1);
  Core core(0, tcdm, bar);
  ProgramBuilder b;
  b.csrr_cycle(x(5));
  b.csrr_cycleh(x(6));
  b.halt();
  core.load_program(b.build());
  Cycle now = (5ull << 32) + 7;
  for (u32 guard = 0; !core.halted() && guard < 1000; ++guard) {
    core.tick(now);
    tcdm.arbitrate(now);
    ++now;
  }
  ASSERT_TRUE(core.halted());
  EXPECT_EQ(core.xreg(6), 5u);
  EXPECT_GE(core.xreg(5), 7u);
}

TEST(Core, SsrMappedReadFeedsFpu) {
  Cluster cl;
  for (u32 i = 0; i < 8; ++i) cl.tcdm().host_write_f64(8 * i, i + 1.0);
  ProgramBuilder b;
  b.ssr_enable();
  // Configure lane 2 as an affine read of 8 elements, then sum them.
  b.li(x(5), 8);
  b.scfgwi(x(5), 2, kSsrBound0);
  b.li(x(5), 8);
  b.scfgwi(x(5), 2, kSsrStride0);
  b.li(x(5), 1);
  b.scfgwi(x(5), 2, kSsrBound1);
  b.li(x(5), 1);
  b.scfgwi(x(5), 2, kSsrBound2);
  b.li(x(5), 1);
  b.scfgwi(x(5), 2, kSsrBound3);
  b.li(x(5), 0);
  b.scfgwi(x(5), 2, kSsrLaunchRead);
  for (u32 i = 0; i < 8; ++i) b.fadd_d(f(4), f(4), kFt2);
  b.ssr_disable();
  b.halt();
  run_on_core0(cl, b.build());
  EXPECT_DOUBLE_EQ(cl.core(0).freg(4), 36.0);  // 1+2+...+8
}

TEST(Core, FpuQueueBackpressuresFetch) {
  // Dependent chain of fmadds: the FPU falls behind, the queue fills, and
  // the integer core records queue-full stalls.
  Cluster cl;
  ProgramBuilder b;
  b.li(x(5), 0);
  b.li(x(6), 30);
  b.bind("loop");
  for (u32 i = 0; i < 6; ++i) b.fmadd_d(f(4), f(4), f(4), f(4));
  b.addi(x(5), x(5), 1);
  b.bne(x(5), x(6), "loop");
  b.halt();
  run_on_core0(cl, b.build());
  EXPECT_GT(cl.core(0).perf().stall_fpu_queue_full, 0u);
}

TEST(Core, WriteStreamBackpressureStallsIssueOnFullFifo) {
  // No generated kernel fills a write lane's FIFO. Here core 0 streams 32
  // results through lane 2 to addresses 256 bytes apart, all in TCDM bank
  // 0, while core 1 hammers the same bank with 48 flds, so the lane drains
  // slower than FREP feeds it and the FPU stalls on the full FIFO.
  Cluster cl;
  ProgramBuilder w;
  w.li(x(5), 32);
  w.scfgwi(x(5), 2, kSsrBound0);
  w.li(x(5), 256);
  w.scfgwi(x(5), 2, kSsrStride0);
  w.li(x(5), 4096);
  w.scfgwi(x(5), 2, kSsrLaunchWrite);
  w.ssr_enable();
  w.li(x(6), 32);
  w.frep(x(6), 1);
  w.fmv_d(kFt2, f(4));
  w.ssr_disable();
  w.halt();
  ProgramBuilder l;
  l.li(x(5), 8192);
  for (i32 i = 0; i < 48; ++i) l.fld(f(4 + i % 8), x(5), 256 * (i % 8));
  l.halt();
  for (u32 c = 2; c < cl.num_cores(); ++c) {
    ProgramBuilder b;
    b.halt();
    cl.core(c).load_program(b.build());
  }
  cl.core(0).load_program(w.build());
  cl.core(0).set_freg(4, 1.5);
  cl.core(1).load_program(l.build());
  const Cycle cycles = cl.run_until_halted(100000);
  ASSERT_TRUE(cl.all_halted());

  const CorePerf& p0 = cl.core(0).perf();
  const CorePerf& p1 = cl.core(1).perf();
  EXPECT_EQ(cycles, 128u);
  EXPECT_EQ(p0.fp_instrs, 32u);
  EXPECT_EQ(p0.fpu_stall_sr_full, 17u);
  EXPECT_EQ(p0.fpu_idle_empty, 79u);
  EXPECT_EQ(p1.fp_instrs, 48u);
  EXPECT_EQ(p1.fpu_stall_mem, 17u);
  EXPECT_EQ(cl.tcdm().total_conflicts(), 42u);
  EXPECT_EQ(p0.fpu_side(), cycles);
  EXPECT_EQ(p1.fpu_side(), cycles);
  for (u32 i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(cl.tcdm().host_read_f64(4096 + 256 * i), 1.5) << i;
  }
}

/// Lane 2 armed as a 1-element write stream to TCDM[64] while SSR is off,
/// then `fmul.d f2` issued with SSR off and `fmv.d f2` with it on: the
/// first result belongs to the register file, the second to the stream.
Program write_back_route_program() {
  ProgramBuilder b;
  b.li(x(5), 1);
  b.scfgwi(x(5), 2, kSsrBound0);
  b.li(x(5), 64);
  b.scfgwi(x(5), 2, kSsrLaunchWrite);
  b.fmul_d(kFt2, f(4), f(4));
  b.ssr_enable();
  b.fmv_d(kFt2, f(5));
  b.ssr_disable();
  b.halt();
  return b.build();
}

TEST(Core, WriteBackRouteIsFixedAtIssue) {
  // ssr_en does not wait for the FPU, so the fmul is still in flight when
  // streaming turns on. Its destination was decided at issue, where the
  // fmv's (and only the fmv's) FIFO slot was reserved.
  ClusterConfig cfg;
  cfg.num_cores = 1;
  Cluster cl(cfg);
  cl.core(0).load_program(write_back_route_program());
  cl.core(0).set_freg(4, 3.0);
  cl.core(0).set_freg(5, 7.0);
  const Cycle cycles = cl.run_until_halted(1000);
  ASSERT_TRUE(cl.all_halted());
  EXPECT_DOUBLE_EQ(cl.core(0).freg(2), 9.0);
  EXPECT_DOUBLE_EQ(cl.tcdm().host_read_f64(64), 7.0);
  EXPECT_EQ(cycles, 33u);
}

/// One-core rig for the per-pc run records: run `p` on a 1-core cluster
/// until it halts.
Core& run_alone(Cluster& cl, Program p) {
  cl.core(0).load_program(std::move(p));
  cl.run_until_halted(1000);
  EXPECT_TRUE(cl.all_halted());
  return cl.core(0);
}

ClusterConfig one_core() {
  ClusterConfig cfg;
  cfg.num_cores = 1;
  return cfg;
}

/// Every stall charged at one pc: the counter table's per-pc columns.
u64 stalls_at(const PcStalls& s) {
  u64 n = 0;
  for (const CounterRow& r : kCounterTable) {
    if (r.by_pc != nullptr) n += s.*r.by_pc;
  }
  return n;
}

TEST(CorePcStalls, OperandWaitIsChargedToTheReader) {
  ProgramBuilder b;
  b.fmul_d(f(4), f(5), f(6));  // pc 0
  b.fadd_d(f(7), f(4), f(4));  // pc 1: reads the fmul's result
  b.halt();
  Cluster cl(one_core());
  const Core& core = run_alone(cl, b.build());
  const std::vector<PcStalls>& at = core.pc_stalls();
  ASSERT_EQ(at.size(), 3u);
  EXPECT_GT(core.perf().fpu_stall_operand, 0u);
  EXPECT_EQ(at[1].operand, core.perf().fpu_stall_operand);
  EXPECT_EQ(stalls_at(at[0]) + stalls_at(at[2]), 0u);
}

TEST(CorePcStalls, FrepReplayCarriesItsBodyPc) {
  // Only replays stall: the fetched first iteration finds f4 ready, and
  // each replay reads the previous one's result.
  ProgramBuilder b;
  b.li(x(5), 4);                       // pc 0
  b.frep(x(5), 1);                     // pc 1
  b.fmadd_d(f(4), f(4), f(4), f(4));  // pc 2
  b.halt();
  Cluster cl(one_core());
  const Core& core = run_alone(cl, b.build());
  const std::vector<PcStalls>& at = core.pc_stalls();
  EXPECT_EQ(core.perf().fp_instrs, 4u);
  EXPECT_GT(core.perf().fpu_stall_operand, 0u);
  EXPECT_EQ(at[2].operand, core.perf().fpu_stall_operand);
  EXPECT_EQ(stalls_at(at[0]) + stalls_at(at[1]) + stalls_at(at[3]), 0u);
}

TEST(CorePcStalls, LoadBehindABusyLsuIsChargedMem) {
  // The fmul pair puts FPU issue two cycles behind fetch, so the sw posts
  // to bank 0 in the cycle the second fld does. The first fld's grant left
  // bank 0's round-robin pointer at the integer LSU, which wins; the FP LSU
  // stays busy one more cycle, and the third fld, queued behind it, stalls.
  ProgramBuilder b;
  b.li(x(5), 0);               // pc 0
  b.fmul_d(f(8), f(9), f(9));  // pc 1
  b.fmul_d(f(8), f(8), f(8));  // pc 2
  b.fld(f(4), x(5), 0);        // pc 3: bank 0
  b.fld(f(5), x(5), 256);      // pc 4: bank 0
  b.fld(f(6), x(5), 8);        // pc 5: bank 1
  b.sw(x(0), x(5), 512);       // pc 6: bank 0
  b.halt();
  Cluster cl(one_core());
  const Core& core = run_alone(cl, b.build());
  const std::vector<PcStalls>& at = core.pc_stalls();
  EXPECT_EQ(cl.tcdm().total_conflicts(), 1u);
  EXPECT_EQ(core.perf().fpu_stall_mem, 1u);
  EXPECT_EQ(at[5].mem, 1u);
  EXPECT_EQ(at[2].operand, 1u);  // the second fmul waits for the first
  u64 total = 0;
  for (const PcStalls& s : at) total += stalls_at(s);
  EXPECT_EQ(total, 2u);
}

TEST(CoreLaunches, OnlyTheLaunchWordIsLogged) {
  ProgramBuilder b;
  b.li(x(5), 4);
  b.scfgwi(x(5), 1, kSsrBound0);      // pc 1
  b.li(x(5), 8);
  b.scfgwi(x(5), 1, kSsrStride0);     // pc 3
  b.li(x(5), 1);
  b.scfgwi(x(5), 1, kSsrBound1);      // pc 5
  b.scfgwi(x(5), 1, kSsrBound2);      // pc 6
  b.scfgwi(x(5), 1, kSsrBound3);      // pc 7
  b.li(x(5), 0);
  b.scfgwi(x(5), 1, kSsrLaunchRead);  // pc 9
  b.ssr_enable();
  for (u32 i = 0; i < 4; ++i) b.fadd_d(f(4), f(4), kFt1);
  b.ssr_disable();
  b.halt();
  Cluster cl(one_core());
  const Core& core = run_alone(cl, b.build());
  ASSERT_EQ(core.launches().size(), 1u);
  EXPECT_EQ(core.launches()[0].core, 0u);
  EXPECT_EQ(core.launches()[0].pc, 9u);
  EXPECT_EQ(core.launches()[0].lane, 1u);
}

TEST(CoreDeath, LoadRejectsAProgramPastTheFpOpPcWidth) {
  Tcdm tcdm;
  Barrier bar(1);
  Core core(0, tcdm, bar);
  std::vector<Instr> instrs(kMaxProgramInstrs + 1);
  EXPECT_DEATH(core.load_program(Program::from_instrs(std::move(instrs))),
               "exceeds 65536");
}

// A core runs one program from power-on: loading again is fine until its
// first tick, and aborts after it.
TEST(CoreDeath, LoadAfterTheFirstTickAborts) {
  Tcdm tcdm;
  Barrier bar(1);
  Core core(0, tcdm, bar);
  ProgramBuilder b;
  b.halt();
  const Program halt = b.build();
  core.load_program(halt);
  core.load_program(halt);
  core.tick(0);
  EXPECT_DEATH(core.load_program(halt), "has already ticked");
}

TEST(FpOp, DecodeMatchesTheOpTableRow) {
  u32 ops = 0;
  for (const OpDesc& d : kOpTable) {
    if (!d.is_fp()) continue;
    ++ops;
    SCOPED_TRACE(std::string(d.name));
    Instr in;
    in.op = d.op;
    in.frd = f(4);
    in.frs1 = f(5);
    in.frs2 = f(6);
    in.frs3 = f(7);
    in.target = 99;  // a branch field: the decoded target stays 0
    const FpOp q = decode_fp_op(in);
    EXPECT_EQ(q.op, d.op);
    EXPECT_EQ(q.mem, d.mem);
    EXPECT_EQ(q.flops, d.flops);
    EXPECT_EQ(q.lat, fpu_latency(d.op));
    EXPECT_EQ(q.dst.idx, 4);
    EXPECT_EQ(q.writes_dst(), d.f_write);
    EXPECT_EQ(q.target, 0u);
    EXPECT_EQ(q.pc, 0u);  // Core::load_program writes it
    std::vector<u8> srcs;  // f_reads slots in operand order
    if (d.f_reads & kSlot1) srcs.push_back(5);
    if (d.f_reads & kSlot2) srcs.push_back(6);
    if (d.f_reads & kSlot3) srcs.push_back(7);
    ASSERT_EQ(q.nsrc, srcs.size());
    for (u32 k = 0; k < q.nsrc; ++k) EXPECT_EQ(q.src[k].idx, srcs[k]);
  }
  EXPECT_EQ(ops, 9u);
}

TEST(FpOpDeath, DecodeRejectsNonFpOps) {
  Instr in;
  in.op = Op::kAddi;
  EXPECT_DEATH(decode_fp_op(in), "non-FP op offloaded: addi");
}

TEST(ICache, HitsAfterColdMiss) {
  ICache ic(16, 2, 32, 10);
  EXPECT_EQ(ic.access(0), 10u);   // cold miss
  EXPECT_EQ(ic.access(4), 0u);    // same line
  EXPECT_EQ(ic.access(28), 0u);
  EXPECT_EQ(ic.access(32), 10u);  // next line
  EXPECT_EQ(ic.misses(), 2u);
  EXPECT_EQ(ic.hits(), 2u);
}

TEST(ICache, LruEviction) {
  // 1 set, 2 ways, 32-B lines: three distinct lines thrash.
  ICache ic(1, 2, 32, 10);
  EXPECT_EQ(ic.access(0), 10u);
  EXPECT_EQ(ic.access(32), 10u);
  EXPECT_EQ(ic.access(0), 0u);    // still resident
  EXPECT_EQ(ic.access(64), 10u);  // evicts 32 (LRU)
  EXPECT_EQ(ic.access(32), 10u);
}

TEST(ICache, SameLineHitsKeepLruExact) {
  // 1 set, 2 ways, 32-B lines. Fetches at 8 and 12 repeat the line looked
  // up last (0); they must hit without reordering the set, so 64 still
  // evicts 32 and the second 32 evicts 0.
  ICache ic(1, 2, 32, 10);
  EXPECT_EQ(ic.access(0), 10u);
  EXPECT_EQ(ic.access(32), 10u);
  EXPECT_EQ(ic.access(4), 0u);
  EXPECT_EQ(ic.access(8), 0u);
  EXPECT_EQ(ic.access(12), 0u);
  EXPECT_EQ(ic.access(64), 10u);  // evicts 32
  EXPECT_EQ(ic.access(32), 10u);  // evicts 0
  EXPECT_EQ(ic.access(0), 10u);
  EXPECT_EQ(ic.misses(), 5u);
  EXPECT_EQ(ic.hits(), 3u);
}

}  // namespace
}  // namespace saris
