// Static verifier tests: every generated kernel verifies clean, every
// seeded defect class is caught, the liveness export is sane, and the
// bank-conflict predictor meets its accuracy contract (exact per-port
// access counts; exactly-zero conflicts when provably conflict-free; a
// documented factor bound elsewhere).
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/verifier.hpp"
#include "common/sim_error.hpp"
#include "cluster/cluster.hpp"
#include "isa/program.hpp"
#include "runtime/kernel_runner.hpp"
#include "stencil/codes.hpp"

namespace saris {
namespace {

bool has_diag(const VerifyReport& rep, DiagKind kind, DiagSeverity sev) {
  return std::any_of(rep.diags.begin(), rep.diags.end(),
                     [&](const Diagnostic& d) {
                       return d.kind == kind && d.severity == sev;
                     });
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
  EXPECT_TRUE(rep.conflict.exact);
  // The liveness export covers every core and every pc, and nothing is
  // live into a program's entry (registers are zeroed at reset; generated
  // code never reads a register it has not written).
  ASSERT_EQ(rep.liveness.size(), ck.programs.size());
  for (u32 c = 0; c < ck.programs.size(); ++c) {
    ASSERT_EQ(rep.liveness[c].live_in.size(), ck.programs[c].size());
    EXPECT_TRUE(rep.liveness[c].live_in[0].empty())
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

// ---- liveness export sanity ----------------------------------------------

TEST(AnalysisLiveness, ExportTracksDefsAndUses) {
  std::vector<Program> progs;
  progs.push_back(Program::from_instrs({
      addi(5, 0, 7),    // 0: def x5
      addi(6, 5, 1),    // 1: use x5, def x6
      beq(6, 0, 3),     // 2: use x6
      halt(),           // 3
  }));
  VerifyReport rep = verify_programs(progs);
  EXPECT_TRUE(rep.ok());
  ASSERT_EQ(rep.liveness.size(), 1u);
  const LivenessExport& lv = rep.liveness[0];
  ASSERT_EQ(lv.live_in.size(), 4u);
  ASSERT_EQ(lv.live_out.size(), 4u);
  EXPECT_TRUE(lv.live_out[0].has_x(5));
  EXPECT_TRUE(lv.live_in[1].has_x(5));
  EXPECT_FALSE(lv.live_in[1].has_x(6));
  EXPECT_TRUE(lv.live_in[2].has_x(6));
  EXPECT_FALSE(lv.live_out[2].has_x(6));  // dead past the branch
  EXPECT_TRUE(lv.live_in[0].empty());     // nothing live into entry
}

// ---- conflict predictor contract -----------------------------------------

TEST(AnalysisConflicts, SingleCoreBaseIsProvablyFreeAndExact) {
  // One base core is the boundary case the model is exact on: only the
  // FP LSU port issues requests, so every bank has at most one requester
  // and the predictor must claim — and the simulator must measure —
  // exactly zero conflicts, with per-port access counts matching exactly.
  const StencilCode& sc = code_by_name("jacobi_2d");
  CompiledKernel ck = compile_kernel(sc, KernelVariant::kBase,
                                     CodegenOptions{}, 1);
  ASSERT_NE(ck.verify_report, nullptr);
  const VerifyReport& rep = *ck.verify_report;
  ASSERT_TRUE(rep.ok());
  ASSERT_TRUE(rep.conflict.exact);
  EXPECT_TRUE(rep.conflict.provably_conflict_free);
  EXPECT_EQ(rep.conflict.predicted_conflicts, 0.0);

  ClusterConfig ccfg;
  ccfg.num_cores = 1;
  Cluster cluster(ccfg);
  KernelIO io;
  for (u32 i = 0; i < sc.n_inputs; ++i) {
    io.inputs.emplace_back(sc.tile_nx, sc.tile_ny, sc.tile_nz);
    io.inputs.back().fill_random(42 + i);
  }
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

TEST_P(AnalysisPredictionTest, PortCountsExactAndConflictFractionBounded) {
  const auto& [name, variant] = GetParam();
  const StencilCode& sc = code_by_name(name);
  RunConfig cfg;
  cfg.variant = variant;
  cfg.overlap_dma = false;  // core-port traffic only, matching rep.conflict
  RunMetrics m = run_kernel(sc, cfg);

  CompiledKernel ck = compile_kernel(sc, variant, CodegenOptions{}, 8);
  const VerifyReport& rep = *ck.verify_report;
  ASSERT_TRUE(rep.conflict.exact);

  // Per-core-port access counts are exact, not estimates.
  for (u32 c = 0; c < rep.absint.cores.size(); ++c) {
    for (u32 k = 0; k < kCorePorts; ++k) {
      EXPECT_EQ(rep.absint.cores[c].ports[k].accesses,
                m.tcdm_port_accesses[c * kCorePorts + k])
          << "core " << c << " port " << core_port_name(k);
    }
  }

  // Conflict volume is a model, not a count: the expected-value formula
  // assumes independent arrivals, while the real cores run in near
  // lockstep (correlated on saris, anti-correlated on some base codes).
  // The documented accuracy envelope (bench/README.md) is a factor-4
  // band with additive slack on both sides.
  const double meas =
      m.tcdm_accesses
          ? static_cast<double>(m.tcdm_conflicts) / m.tcdm_accesses
          : 0.0;
  const double pred = rep.conflict.predicted_fraction;
  EXPECT_LE(pred, 4.0 * meas + 0.12) << "meas=" << meas;
  EXPECT_LE(meas, 4.0 * pred + 0.05) << "pred=" << pred;
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

}  // namespace
}  // namespace saris
