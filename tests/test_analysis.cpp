// Static verifier tests: every generated kernel verifies clean, every
// seeded defect class is caught, the liveness solver and the register
// pressure drawn from it are sane, the walk's per-port access counts equal
// the simulator's, and a cell whose banks each have one core requester
// measures zero conflicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>

#include "analysis/dataflow.hpp"
#include "analysis/verifier.hpp"
#include "cluster/cluster.hpp"
#include "common/sim_error.hpp"
#include "common/splitmix.hpp"
#include "isa/program.hpp"
#include "runtime/kernel_runner.hpp"
#include "ssr/ssr_config.hpp"
#include "stencil/codes.hpp"
#include "stencil/reference.hpp"

namespace saris {
namespace {

bool has_diag(const VerifyReport& rep, DiagKind kind, DiagSeverity sev) {
  return std::any_of(rep.diags.begin(), rep.diags.end(),
                     [&](const Diagnostic& d) {
                       return d.kind == kind && d.severity == sev;
                     });
}

/// One core's live-in and live-out sets per program pc, from the public
/// solver: each pc's sets are the union over its stagger copies.
struct PcLiveness {
  std::vector<RegSet> in;
  std::vector<RegSet> out;
};

PcLiveness liveness_of(const Program& prog, u32 core) {
  PcLiveness pl{std::vector<RegSet>(prog.size()),
                std::vector<RegSet>(prog.size())};
  std::vector<Diagnostic> diags;
  const std::optional<Cfg> cfg = Cfg::build(prog, core, diags);
  if (!cfg.has_value()) {
    ADD_FAILURE() << "core " << core << " has no CFG";
    return pl;
  }
  const DataflowResult<SsrStateProblem> ssr = solve(*cfg, SsrStateProblem{});
  std::vector<UseDef> ud;
  for (u32 vi = 0; vi < cfg->size(); ++vi) {
    ud.push_back(use_def(cfg->vinstrs()[vi], ssr.in[vi]));
  }
  const DataflowResult<LivenessProblem> live =
      solve(*cfg, LivenessProblem{ud});
  for (u32 vi = 0; vi < cfg->size(); ++vi) {
    const u32 pc = cfg->vinstrs()[vi].pc;
    pl.in[pc] |= live.in[vi];
    pl.out[pc] |= live.out[vi];
  }
  return pl;
}

// ---- every (code, variant) cell verifies clean ---------------------------

class AnalysisCleanTest : public ::testing::TestWithParam<
                              std::tuple<std::string, KernelVariant>> {};

TEST_P(AnalysisCleanTest, NoDiagnosticsAndCompleteWalk) {
  const auto& [name, variant] = GetParam();
  const StencilCode& sc = code_by_name(name);
  CompiledKernel ck = compile_kernel(sc, variant, CodegenOptions{}, 8);
  ASSERT_NE(ck.verify_report, nullptr);
  const VerifyReport& rep = *ck.verify_report;
  for (const Diagnostic& d : rep.diags) {
    ADD_FAILURE() << diag_to_string(d);
  }
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(rep.absint.all_complete);
  // Nothing is live into a program's entry (registers are zeroed at reset;
  // generated code never reads a register it has not written).
  for (u32 c = 0; c < ck.programs.size(); ++c) {
    EXPECT_TRUE(liveness_of(ck.programs[c], c).in.at(0).empty())
        << "core " << c << " entry liveness not empty";
  }
}

std::vector<std::tuple<std::string, KernelVariant>> all_params() {
  std::vector<std::tuple<std::string, KernelVariant>> ps;
  for (const StencilCode& sc : all_codes()) {
    ps.emplace_back(sc.name, KernelVariant::kBase);
    ps.emplace_back(sc.name, KernelVariant::kSaris);
  }
  return ps;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, AnalysisCleanTest, ::testing::ValuesIn(all_params()),
    [](const ::testing::TestParamInfo<AnalysisCleanTest::ParamType>& info) {
      return std::get<0>(info.param) + std::string("_") +
             variant_name(std::get<1>(info.param));
    });

// ---- seeded defects: each class is caught statically ---------------------

Instr halt() {
  Instr i;
  i.op = Op::kHalt;
  return i;
}

Instr addi(u8 rd, u8 rs1, i32 imm) {
  Instr i;
  i.op = Op::kAddi;
  i.rd = XReg{rd};
  i.rs1 = XReg{rs1};
  i.imm = imm;
  return i;
}

Instr beq(u8 rs1, u8 rs2, u32 target) {
  Instr i;
  i.op = Op::kBeq;
  i.rs1 = XReg{rs1};
  i.rs2 = XReg{rs2};
  i.target = target;
  return i;
}

Instr fadd(u8 frd, u8 frs1, u8 frs2) {
  Instr i;
  i.op = Op::kFaddD;
  i.frd = FReg{frd};
  i.frs1 = FReg{frs1};
  i.frs2 = FReg{frs2};
  return i;
}

Instr fsgnj(u8 frd, u8 frs1) {
  Instr i;
  i.op = Op::kFsgnjD;
  i.frd = FReg{frd};
  i.frs1 = FReg{frs1};
  return i;
}

Instr ssren() {
  Instr i;
  i.op = Op::kSsrEn;
  return i;
}

Instr frep(u8 reps_reg, u32 body_len) {
  Instr i;
  i.op = Op::kFrep;
  i.rs1 = XReg{reps_reg};
  i.imm = static_cast<i32>(body_len & 0xFF);
  return i;
}

Instr sw(u8 rs1, u8 rs2, i32 imm) {
  Instr i;
  i.op = Op::kSw;
  i.rs1 = XReg{rs1};
  i.rs2 = XReg{rs2};
  i.imm = imm;
  return i;
}

VerifyReport check_one(std::vector<Instr> instrs) {
  std::vector<Program> progs;
  progs.push_back(Program::from_instrs(std::move(instrs)));
  return verify_programs(progs);
}

TEST(AnalysisNegative, BranchTargetOutOfRange) {
  VerifyReport rep = check_one({beq(0, 0, 7), halt()});
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_diag(rep, DiagKind::kBadBranchTarget,
                       DiagSeverity::kError));
}

TEST(AnalysisNegative, FallOffTheEnd) {
  VerifyReport rep = check_one({addi(5, 0, 1)});
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_diag(rep, DiagKind::kFallOffEnd, DiagSeverity::kError));
}

TEST(AnalysisNegative, UseBeforeDef) {
  // f5/f6 are never written on any path; the generated kernels never rely
  // on reset-zeroed registers, so the verifier treats this as an error.
  VerifyReport rep = check_one({fadd(4, 5, 6), halt()});
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_diag(rep, DiagKind::kUseBeforeDef, DiagSeverity::kError));
}

TEST(AnalysisNegative, FrepOverControlFlow) {
  VerifyReport rep =
      check_one({addi(5, 0, 4), frep(5, 1), beq(0, 0, 3), halt()});
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_diag(rep, DiagKind::kFrepOverControlFlow,
                       DiagSeverity::kError));
}

TEST(AnalysisNegative, UnconfiguredSsrRead) {
  // Streams enabled, ft0 read, but no scfgwi ever launched lane 0.
  VerifyReport rep = check_one({ssren(), fsgnj(4, 0), halt()});
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_diag(rep, DiagKind::kUnconfiguredSsrRead,
                       DiagSeverity::kError));
}

TEST(AnalysisNegative, DeadStoreIsAWarningNotAnError) {
  // First write to x5 is overwritten before any read: flagged, but the
  // program is still runnable, so the report stays ok().
  VerifyReport rep = check_one(
      {addi(5, 0, 1), addi(5, 0, 2), beq(5, 0, 3), halt()});
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(has_diag(rep, DiagKind::kDeadStore, DiagSeverity::kWarning));
}

TEST(AnalysisNegative, OutOfArenaAndOutOfTcdmStores) {
  // Take a real artifact and replace core 0's program with one that stores
  // (a) past the layout watermark but inside TCDM and (b) past TCDM.
  const StencilCode& sc = code_by_name("jacobi_2d");
  CompiledKernel ck = compile_kernel(sc, KernelVariant::kBase,
                                     CodegenOptions{}, 8);
  const i32 past_arena =
      static_cast<i32>((ck.layout.top + 64u + 7u) & ~7u);
  {
    CompiledKernel bad = ck;
    bad.programs[0] = Program::from_instrs(
        {addi(5, 0, past_arena), sw(5, 0, 0), halt()});
    VerifyReport rep = verify_kernel(bad);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(has_diag(rep, DiagKind::kOutOfArenaAccess,
                         DiagSeverity::kError));
    EXPECT_FALSE(rep.absint.all_complete);
  }
  {
    CompiledKernel bad = ck;
    bad.programs[0] = Program::from_instrs(
        {addi(5, 0, static_cast<i32>(kTcdmSizeBytes) + 16), sw(5, 0, 0),
         halt()});
    VerifyReport rep = verify_kernel(bad);
    EXPECT_FALSE(rep.ok());
    EXPECT_TRUE(has_diag(rep, DiagKind::kOutOfTcdmAccess,
                         DiagSeverity::kError));
  }
}

TEST(AnalysisNegative, ReadOnlyArenaStoreRejected) {
  // Input arenas are read-only to the cores; a store into one is an error
  // even though the address is inside a mapped arena.
  const StencilCode& sc = code_by_name("jacobi_2d");
  CompiledKernel ck = compile_kernel(sc, KernelVariant::kBase,
                                     CodegenOptions{}, 8);
  CompiledKernel bad = ck;
  bad.programs[0] = Program::from_instrs(
      {addi(5, 0, static_cast<i32>(ck.layout.inputs[0])), sw(5, 0, 0),
       halt()});
  VerifyReport rep = verify_kernel(bad);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(
      has_diag(rep, DiagKind::kOutOfArenaAccess, DiagSeverity::kError));
}

TEST(AnalysisNegative, OverlapDmaOutsideTcdm) {
  // The overlap DMA jobs are range-checked at compile time too: a job that
  // starts at the end of the TCDM is an error before any cluster runs it.
  const StencilCode& sc = code_by_name("jacobi_2d");
  CompiledKernel ck = compile_kernel(sc, KernelVariant::kBase,
                                     CodegenOptions{}, 8);
  ASSERT_FALSE(ck.overlap_jobs.empty());
  ck.overlap_jobs[0].tcdm_addr = kTcdmSizeBytes;
  VerifyReport rep = verify_kernel(ck);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(
      has_diag(rep, DiagKind::kOutOfTcdmAccess, DiagSeverity::kError));
  // A DMA job has no pc: the rendered finding names the overlap DMA and
  // shows no instruction, so no "  -> pc:\tinstr" disassembly line.
  const std::string text = render_report(rep, ck.programs);
  EXPECT_NE(text.find("overlap DMA: error [out-of-tcdm-access]"),
            std::string::npos)
      << text;
  EXPECT_EQ(text.find("core 0 pc 0"), std::string::npos) << text;
  EXPECT_EQ(text.find(":\t"), std::string::npos) << text;
}

TEST(AnalysisNegative, CompileRaisesOnIllegalProgram) {
  // The same defect raised through the pipeline entry: raise_if_bad turns
  // errors into SimError(kIllegalProgram) with a disassembly window.
  std::vector<Program> progs;
  progs.push_back(Program::from_instrs({beq(0, 0, 9), halt()}));
  VerifyReport rep = verify_programs(progs);
  try {
    raise_if_bad(rep, progs);
    FAIL() << "raise_if_bad did not throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.errc(), SimErrc::kIllegalProgram);
    EXPECT_NE(std::string(e.what()).find("bad-branch-target"),
              std::string::npos);
  }
}

// ---- liveness and register pressure sanity -------------------------------

TEST(AnalysisLiveness, SolverTracksDefsAndUses) {
  std::vector<Program> progs;
  progs.push_back(Program::from_instrs({
      addi(5, 0, 7),    // 0: def x5
      addi(6, 5, 1),    // 1: use x5, def x6
      beq(6, 0, 3),     // 2: use x6
      halt(),           // 3
  }));
  VerifyReport rep = verify_programs(progs);
  EXPECT_TRUE(rep.ok());
  const PcLiveness lv = liveness_of(progs[0], 0);
  EXPECT_TRUE(lv.out[0].has_x(5));
  EXPECT_TRUE(lv.in[1].has_x(5));
  EXPECT_FALSE(lv.in[1].has_x(6));
  EXPECT_TRUE(lv.in[2].has_x(6));
  EXPECT_FALSE(lv.out[2].has_x(6));  // dead past the branch
  EXPECT_TRUE(lv.in[0].empty());     // nothing live into entry
  // One x register is live at a time. Live-in sets are scanned first, and
  // pc 1's is the first to hold one.
  ASSERT_EQ(rep.pressure.size(), 1u);
  EXPECT_EQ(rep.pressure[0].max_live_x, 1u);
  EXPECT_EQ(rep.pressure[0].at_pc_x, 1u);
  EXPECT_EQ(rep.pressure[0].max_live_f, 0u);
}

// ---- port counts and the conflict-free verdict ---------------------------

TEST(AnalysisConflicts, SingleCoreBaseIsProvablyFreeAndExact) {
  // One base core: only the FP LSU port issues requests, so every bank has
  // at most one requester. The verifier must say so and the simulator must
  // measure zero conflicts, with per-port access counts matching exactly.
  const StencilCode& sc = code_by_name("jacobi_2d");
  CompiledKernel ck = compile_kernel(sc, KernelVariant::kBase,
                                     CodegenOptions{}, 1);
  ASSERT_NE(ck.verify_report, nullptr);
  const VerifyReport& rep = *ck.verify_report;
  ASSERT_TRUE(rep.ok());
  ASSERT_TRUE(rep.absint.all_complete);
  EXPECT_TRUE(rep.absint.conflict_free());

  ClusterConfig ccfg;
  ccfg.num_cores = 1;
  Cluster cluster(ccfg);
  KernelIO io;
  io.inputs = seeded_inputs(sc, 42);
  io.coeffs = sc.default_coeffs();
  stage_kernel(ck, cluster, io);
  cluster.run_until_halted();

  EXPECT_EQ(cluster.tcdm().total_conflicts(), 0u);
  for (u32 k = 0; k < kCorePorts; ++k) {
    EXPECT_EQ(rep.absint.cores[0].ports[k].accesses,
              cluster.tcdm().port_accesses(k))
        << "port " << core_port_name(k);
  }
}

class AnalysisPredictionTest : public ::testing::TestWithParam<
                                   std::tuple<std::string, KernelVariant>> {
};

TEST_P(AnalysisPredictionTest, PortCountsExact) {
  const auto& [name, variant] = GetParam();
  const StencilCode& sc = code_by_name(name);
  RunConfig cfg;
  cfg.variant = variant;
  cfg.overlap_dma = false;  // core-port traffic only
  RunMetrics m = run_kernel(sc, cfg);

  CompiledKernel ck = compile_kernel(sc, variant, CodegenOptions{}, 8);
  const VerifyReport& rep = *ck.verify_report;
  ASSERT_TRUE(rep.absint.all_complete);

  // Per-core-port access counts are exact, not estimates.
  for (u32 c = 0; c < rep.absint.cores.size(); ++c) {
    for (u32 k = 0; k < kCorePorts; ++k) {
      EXPECT_EQ(rep.absint.cores[c].ports[k].accesses,
                m.tcdm_port_accesses[c * kCorePorts + k])
          << "core " << c << " port " << core_port_name(k);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SampledCells, AnalysisPredictionTest,
    ::testing::Values(
        std::make_tuple("jacobi_2d", KernelVariant::kBase),
        std::make_tuple("jacobi_2d", KernelVariant::kSaris),
        std::make_tuple("j3d27pt", KernelVariant::kSaris),
        std::make_tuple("star3d2r", KernelVariant::kBase)),
    [](const ::testing::TestParamInfo<AnalysisPredictionTest::ParamType>&
           info) {
      return std::get<0>(info.param) + std::string("_") +
             variant_name(std::get<1>(info.param));
    });

// ---- stream edges: the per-element results each shape must keep ---------

/// One core over a hand-built layout: input0 [0x1000, 0x2000) and input1
/// [0x2000, 0x3000) read-only, output [0x3000, 0x4000) writable, a gap at
/// [0x4000, 0x5000), and lane 0's index array at 0x5000.
CompiledKernel stream_kernel(std::vector<Instr> prog,
                             std::vector<u16> lane0_indices = {}) {
  CompiledKernel ck;
  ck.n_cores = 1;
  ck.tcdm_bytes = kTcdmSizeBytes;
  ck.programs.push_back(Program::from_instrs(std::move(prog)));
  ck.layout.inputs = {0x1000, 0x2000};
  ck.layout.output = 0x3000;
  ck.layout.tile_bytes = 0x1000;
  ck.layout.core_idx.resize(1);
  ck.layout.core_idx[0][0] = IdxArraySpec{
      0x5000, static_cast<u32>(lane0_indices.size())};
  ck.idx_values.resize(1);
  ck.idx_values[0][0] = std::move(lane0_indices);
  return ck;
}

Instr scfgwi(u8 rs1, u32 lane, u32 word) {
  Instr i;
  i.op = Op::kScfgwi;
  i.rs1 = XReg{rs1};
  i.imm = scfg_imm(lane, word);
  return i;
}

/// `addi x5, x0, value; scfgwi x5, lane, word`.
void cfg_word(std::vector<Instr>& p, u32 lane, u32 word, i32 value) {
  p.push_back(addi(5, 0, value));
  p.push_back(scfgwi(5, lane, word));
}

std::vector<std::string> diag_lines(const VerifyReport& rep) {
  std::vector<std::string> out;
  for (const Diagnostic& d : rep.diags) out.push_back(diag_to_string(d));
  return out;
}

std::vector<u64> port_counts(const CorePrediction& c) {
  std::vector<u64> out;
  for (const PortPrediction& p : c.ports) out.push_back(p.accesses);
  return out;
}

TEST(AnalysisStreams, NegativeStrideAffineRead) {
  // Lane 0 walks 4 x 3 elements down from 0x1018 and ends exactly on
  // input0's first word; lane 1 walks 4 elements down from 0x1010 and its
  // last one falls below the arena.
  std::vector<Instr> p;
  cfg_word(p, 0, kSsrBound0, 4);
  cfg_word(p, 0, kSsrStride0, -8);
  cfg_word(p, 0, kSsrBound1, 3);
  cfg_word(p, 0, kSsrStride1, 64);
  cfg_word(p, 0, kSsrLaunchRead, 0x1018);
  cfg_word(p, 1, kSsrBound0, 4);
  cfg_word(p, 1, kSsrStride0, -8);
  cfg_word(p, 1, kSsrLaunchRead, 0x1010);
  p.push_back(halt());
  const VerifyReport rep = verify_kernel(stream_kernel(p));
  EXPECT_EQ(diag_lines(rep),
            std::vector<std::string>{
                "core 0 pc 15: error [out-of-arena-access] read of 8 B at "
                "0xff8 inside TCDM but outside every layout arena: SSR lane "
                "1 read stream"});
  const CorePrediction& c = rep.absint.cores.at(0);
  EXPECT_EQ(port_counts(c), (std::vector<u64>{0, 12, 3, 0, 0, 0}));
  EXPECT_FALSE(c.complete);
  EXPECT_EQ(c.int_steps, 17u);
}

TEST(AnalysisStreams, ZeroStrideOuterDimension) {
  // Four words at the top of the output arena, read five times over.
  std::vector<Instr> p;
  cfg_word(p, 2, kSsrBound0, 4);
  cfg_word(p, 2, kSsrStride0, 8);
  cfg_word(p, 2, kSsrBound1, 5);
  cfg_word(p, 2, kSsrStride1, 0);
  cfg_word(p, 2, kSsrLaunchRead, 0x3FE0);
  p.push_back(halt());
  const VerifyReport rep = verify_kernel(stream_kernel(p));
  EXPECT_TRUE(rep.diags.empty()) << diag_lines(rep).front();
  const CorePrediction& c = rep.absint.cores.at(0);
  EXPECT_EQ(port_counts(c), (std::vector<u64>{0, 0, 0, 20, 0, 0}));
  std::vector<u64> banks(kTcdmBanks, 0);
  for (u32 b = 28; b < 32; ++b) banks[b] = 5;  // words 0x7FC..0x7FF
  EXPECT_EQ(c.ports[kPortSsr2].per_bank, banks);
  EXPECT_TRUE(c.complete);
}

TEST(AnalysisStreams, AffineReadStraddlingTwoArenas) {
  // 64 words from 0x1F00 run from input0 into input1: every element lies
  // in some arena, so nothing is reported.
  std::vector<Instr> p;
  cfg_word(p, 0, kSsrBound0, 64);
  cfg_word(p, 0, kSsrStride0, 8);
  cfg_word(p, 0, kSsrLaunchRead, 0x1F00);
  p.push_back(halt());
  const VerifyReport rep = verify_kernel(stream_kernel(p));
  EXPECT_TRUE(rep.diags.empty()) << diag_lines(rep).front();
  const CorePrediction& c = rep.absint.cores.at(0);
  EXPECT_EQ(port_counts(c), (std::vector<u64>{0, 64, 0, 0, 0, 0}));
  EXPECT_EQ(c.ports[kPortSsr0].per_bank, std::vector<u64>(kTcdmBanks, 2));
  EXPECT_TRUE(c.complete);
}

TEST(AnalysisStreams, AffineWriteIntoReadOnlyArena) {
  // Sixteen words written into input0: the first eight are reported and
  // the eighth stops the walk.
  std::vector<Instr> p;
  cfg_word(p, 2, kSsrBound0, 16);
  cfg_word(p, 2, kSsrStride0, 8);
  cfg_word(p, 2, kSsrLaunchWrite, 0x1000);
  p.push_back(halt());
  const VerifyReport rep = verify_kernel(stream_kernel(p));
  std::vector<std::string> want;
  for (u32 k = 0; k < 8; ++k) {
    std::ostringstream os;
    os << "core 0 pc 5: error [out-of-arena-access] write of 8 B at 0x"
       << std::hex << 0x1000 + 8 * k
       << " write into read-only arena 'input0': SSR lane 2 write stream";
    want.push_back(os.str());
  }
  EXPECT_EQ(diag_lines(rep), want);
  const CorePrediction& c = rep.absint.cores.at(0);
  EXPECT_EQ(port_counts(c), (std::vector<u64>{0, 0, 0, 0, 0, 0}));
  EXPECT_FALSE(c.complete);
  EXPECT_EQ(c.int_steps, 6u);
}

TEST(AnalysisStreams, GatherWhoseLargestIndexLeavesItsArena) {
  // Five indices from the output arena's base; the last lands on 0x4000,
  // in the gap past the arena.
  std::vector<Instr> p;
  cfg_word(p, 0, kSsrIdxBase, 0x5000);
  cfg_word(p, 0, kSsrIdxCount, 5);
  cfg_word(p, 0, kSsrLaunchIndirect, 0x3000);
  p.push_back(halt());
  const VerifyReport rep =
      verify_kernel(stream_kernel(p, {0, 3, 1, 2, 0x200}));
  EXPECT_EQ(diag_lines(rep),
            std::vector<std::string>{
                "core 0 pc 5: error [out-of-arena-access] read of 8 B at "
                "0x4000 inside TCDM but outside every layout arena: SSR "
                "lane 0 gather"});
  const CorePrediction& c = rep.absint.cores.at(0);
  EXPECT_EQ(port_counts(c), (std::vector<u64>{2, 4, 0, 0, 0, 0}));
  EXPECT_FALSE(c.complete);
}

// ---- mutant corpus: every report field pinned over one-instruction mutants

/// FNV-1a, fed field by field so no struct padding enters it.
class Fnv {
 public:
  template <typename T>
  void pod(const T& v) {
    unsigned char b[sizeof v];
    std::memcpy(b, &v, sizeof v);
    for (unsigned char c : b) h_ = (h_ ^ c) * 0x100000001b3ull;
  }
  void str(const std::string& s) {
    for (char c : s) pod(c);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  u64 h_ = 0xcbf29ce484222325ull;
};

void digest_port(Fnv& d, const PortPrediction& p) {
  d.pod(p.accesses);
  for (u64 b : p.per_bank) d.pod(b);
}

void digest_report(Fnv& d, const VerifyReport& rep) {
  d.pod(rep.diags.size());
  for (const Diagnostic& g : rep.diags) {
    d.pod(g.kind);
    d.pod(g.severity);
    d.pod(g.core);
    d.pod(g.pc);
    d.str(g.message);
  }
  d.pod(rep.absint.all_complete);
  for (const CorePrediction& c : rep.absint.cores) {
    d.pod(c.complete);
    d.pod(c.int_steps);
    for (const PortPrediction& p : c.ports) digest_port(d, p);
  }
  for (const RegPressure& p : rep.pressure) {
    d.pod(p.max_live_x);
    d.pod(p.max_live_f);
    d.pod(p.at_pc_x);
    d.pod(p.at_pc_f);
  }
  d.pod(rep.absint.conflict_free());
}

/// `prog` with one instruction changed in one of five ways: a nop, its
/// immediate moved by 1..64, swapped with its successor, overwritten by
/// another instruction of the program, or (for a random branch) its
/// target moved by 1..3.
std::vector<Instr> mutate(const Program& prog, u64& s) {
  std::vector<Instr> in = prog.instrs();
  const u32 n = prog.size();
  const u32 pc = static_cast<u32>(splitmix64(s) % n);
  switch (splitmix64(s) % 5) {
    case 0:
      in[pc] = Instr{};
      break;
    case 1: {
      const i32 delta = 1 + static_cast<i32>(splitmix64(s) % 64);
      in[pc].imm += (splitmix64(s) & 1) ? delta : -delta;
      break;
    }
    case 2:
      if (pc + 1 < n) std::swap(in[pc], in[pc + 1]);
      break;
    case 3:
      in[pc] = in[splitmix64(s) % n];
      break;
    default: {
      std::vector<u32> branches;
      for (u32 q = 0; q < n; ++q) {
        if (op_class(in[q].op) == OpClass::kBranch) branches.push_back(q);
      }
      if (branches.empty()) break;
      Instr& b = in[branches[splitmix64(s) % branches.size()]];
      const u32 delta = 1 + static_cast<u32>(splitmix64(s) % 3);
      b.target = (splitmix64(s) & 1) ? b.target + delta : b.target - delta;
      break;
    }
  }
  return in;
}

TEST(AnalysisMutants, ReportDigestIsPinned) {
  // Every field of verify_kernel's report over 1,000 one-instruction
  // mutants of the 20 cells' programs, as one digest. A change to the
  // verifier's speed must leave it as it is.
  CodegenOptions cg;
  cg.verify = false;
  cg.analyze_cost = false;
  std::vector<CompiledKernel> cells;
  for (const StencilCode& sc : all_codes()) {
    for (KernelVariant v : {KernelVariant::kBase, KernelVariant::kSaris}) {
      cells.push_back(compile_kernel(sc, v, cg, 8));
    }
  }
  u64 s = 21;
  Fnv d;
  u32 rejected = 0;
  for (u32 m = 0; m < 1000; ++m) {
    CompiledKernel& ck = cells[m % cells.size()];
    const u32 core = static_cast<u32>(splitmix64(s) % ck.programs.size());
    const Program original = ck.programs[core];
    ck.programs[core] = Program::from_instrs(mutate(original, s));
    const VerifyReport rep = verify_kernel(ck);
    ck.programs[core] = original;
    rejected += rep.ok() ? 0 : 1;
    digest_report(d, rep);
  }
  EXPECT_EQ(rejected, 438u);
  EXPECT_EQ(d.hex(), "e1d6dd353fbd8889");
}

}  // namespace
}  // namespace saris
