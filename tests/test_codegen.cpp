// Unit tests: code generators — work partitioning, register budgets, index
// arrays (the heart of SARIS: every tap of every point must be reachable as
// base + index), configuration choices, program well-formedness.
#include <gtest/gtest.h>

#include <set>

#include "codegen/base_codegen.hpp"
#include "core/frep.hpp"
#include "mem/tcdm.hpp"
#include "codegen/layout.hpp"
#include "codegen/saris_codegen.hpp"
#include "stencil/codes.hpp"

namespace saris {
namespace {

KernelLayout layout_for(const StencilCode& sc, const SarisCodegen* scg) {
  // Index-array sizes per core and lane, as compile_kernel allocates them.
  std::vector<std::array<u32, 2>> counts(8, {0u, 0u});
  for (u32 c = 0; scg != nullptr && c < 8; ++c) {
    auto vals = scg->idx_values(c);
    counts[c] = {static_cast<u32>(vals[0].size()),
                 static_cast<u32>(vals[1].size())};
  }
  return make_layout(sc, 8, counts, kTcdmSizeBytes);
}

// ---- work partitioning ----

TEST(CoreWork, CoversAllInteriorPointsExactlyOnce) {
  for (const StencilCode& sc : all_codes()) {
    u64 total = 0;
    for (u32 c = 0; c < 8; ++c) total += core_work(sc, c).points();
    EXPECT_EQ(total, sc.interior_points()) << sc.name;
  }
}

TEST(CoreWork, PhasesAreDistinct) {
  for (const StencilCode& sc : all_codes()) {
    std::set<std::tuple<u32, u32, u32>> phases;
    for (u32 c = 0; c < 8; ++c) {
      CoreWork w = core_work(sc, c);
      phases.insert({w.phase_x, w.phase_y, w.phase_z});
    }
    EXPECT_EQ(phases.size(), 8u) << sc.name;
  }
}

TEST(CoreWork, ThreeDimensionalCodesAreBalanced) {
  // The 2x2x2 interleave balances all our (even-interior) 3-D tiles.
  for (const StencilCode& sc : all_codes()) {
    if (sc.dims != 3) continue;
    u64 first = core_work(sc, 0).points();
    for (u32 c = 1; c < 8; ++c) {
      EXPECT_EQ(core_work(sc, c).points(), first) << sc.name;
    }
  }
}

TEST(CoreWork, TwoDimensionalImbalanceIsSmall) {
  for (const StencilCode& sc : all_codes()) {
    if (sc.dims != 2) continue;
    u64 lo = ~0ull, hi = 0;
    for (u32 c = 0; c < 8; ++c) {
      u64 p = core_work(sc, c).points();
      lo = std::min(lo, p);
      hi = std::max(hi, p);
    }
    EXPECT_LE(static_cast<double>(hi) / lo, 1.12) << sc.name;
  }
}

// ---- saris index arrays: the core SARIS property ----

// For every code and core: replaying the per-row index arrays against the
// row base addresses must touch exactly the tap elements of this core's
// points, in a per-lane order consistent with one pop per stream read.
class IdxProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(IdxProperty, IndicesResolveToTapElements) {
  const StencilCode& sc = code_by_name(GetParam());
  SarisCodegen cg(sc);
  u32 rz = sc.dims == 3 ? sc.radius : 0;
  u64 row_e = sc.tile_nx;
  u64 plane_e = static_cast<u64>(sc.tile_nx) * sc.tile_ny;

  for (u32 core = 0; core < 8; ++core) {
    CoreWork w = core_work(sc, core);
    auto vals = cg.idx_values(core);

    // Expected multiset of element offsets for one row (lane-agnostic):
    // every tap of every point, relative to the row base element
    // (z - rz, y - r, 0) of input array 0 — prev-array taps shifted by one
    // tile. Coefficient gathers (stream mode) excluded via idx < tile area.
    std::multiset<u64> expect;
    for (u32 k = 0; k < w.pts_row; ++k) {
      u32 x = sc.radius + w.phase_x + k * interleave_x(sc);
      for (const Tap& t : sc.taps) {
        u64 e = static_cast<u64>(static_cast<i64>((t.dz + static_cast<i32>(rz))) * plane_e +
                                 static_cast<i64>(t.dy + static_cast<i32>(sc.radius)) * row_e +
                                 static_cast<i64>(x) + t.dx);
        if (t.array == 1) e += sc.tile_points();
        expect.insert(e);
      }
    }

    std::multiset<u64> got;
    u32 coeff_reads = 0;
    for (u32 l = 0; l < 2; ++l) {
      for (u16 v : vals[l]) {
        if (cg.stream_coeffs() && l == 1) {
          ++coeff_reads;  // coefficient-table gathers, not tap elements
        } else {
          got.insert(v);
        }
      }
    }
    EXPECT_EQ(got, expect) << sc.name << " core " << core;
    if (cg.stream_coeffs()) {
      EXPECT_GT(coeff_reads, 0u);
    }
  }
}

TEST_P(IdxProperty, LaneLoadsReasonablyBalanced) {
  const StencilCode& sc = code_by_name(GetParam());
  SarisCodegen cg(sc);
  auto vals = cg.idx_values(0);
  double a = static_cast<double>(vals[0].size());
  double b = static_cast<double>(vals[1].size());
  ASSERT_GT(a + b, 0.0);
  // Step 2 of the method: balance utilization between SR0 and SR1.
  EXPECT_LE(std::max(a, b) / (a + b), 0.65) << sc.name;
}

std::vector<std::string> code_names() {
  std::vector<std::string> out;
  for (const StencilCode& sc : all_codes()) out.push_back(sc.name);
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllCodes, IdxProperty,
                         ::testing::ValuesIn(code_names()),
                         [](const auto& info) { return info.param; });

// ---- register budgets ----

TEST(SarisCodegen, ProgramsRespectRegisterFile) {
  for (const StencilCode& sc : all_codes()) {
    SarisCodegen cg(sc);
    KernelLayout lay = layout_for(sc, &cg);
    for (u32 core = 0; core < 8; ++core) {
      Program p = cg.emit(core, lay);
      for (u32 i = 0; i < p.size(); ++i) {
        const Instr& in = p.at(i);
        EXPECT_LT(in.frd.idx, 32) << sc.name;
        // Staggered registers must leave headroom for the rotation.
        if (in.op == Op::kFrep && frep_stagger(in.imm) > 1) {
          for (u32 k = 1; k <= frep_body_len(in.imm); ++k) {
            const Instr& body = p.at(i + k);
            for (FReg r : {body.frd, body.frs1, body.frs2, body.frs3}) {
              if (r.idx >= frep_stagger_base(in.imm)) {
                EXPECT_LE(r.idx + frep_stagger(in.imm) - 1, 31u) << sc.name;
              }
            }
          }
        }
      }
    }
  }
}

TEST(SarisCodegen, ConfigChoicesForKnownCodes) {
  {
    SarisCodegen cg(code_by_name("jacobi_2d"));
    EXPECT_TRUE(cg.use_frep());
    EXPECT_GE(cg.unroll(), 2u);  // short schedule: multi-point FREP body
    EXPECT_FALSE(cg.stream_coeffs());
    EXPECT_EQ(cg.spill_sr2(), 0u);
  }
  {
    SarisCodegen cg(code_by_name("box2d1r"));
    EXPECT_TRUE(cg.use_frep());
    EXPECT_EQ(cg.unroll(), 1u);
    EXPECT_GT(cg.stagger(), 1u);  // single-point body: staggered registers
  }
  {
    SarisCodegen cg(code_by_name("box3d1r"));
    EXPECT_FALSE(cg.use_frep());  // 28-op schedule exceeds the FREP buffer
    EXPECT_EQ(cg.spill_sr2(), 0u);  // 27 coeffs + 2 chains just fit
  }
  {
    SarisCodegen cg(code_by_name("j3d27pt"));
    EXPECT_FALSE(cg.use_frep());
    EXPECT_EQ(cg.spill_sr2(), 1u);  // 28 coeffs: one streams through SR2
    EXPECT_EQ(cg.spilled_from(), 26u);
  }
  {
    SarisCodegen cg(code_by_name("ac_iso_cd"));
    EXPECT_FALSE(cg.use_frep());
    EXPECT_FALSE(cg.stream_coeffs());
  }
}

TEST(BaseCodegen, UnrollAndSpillChoices) {
  {
    BaseCodegen cg(code_by_name("jacobi_2d"));
    EXPECT_EQ(cg.unroll(), 4u);
    EXPECT_EQ(cg.spilled_coeffs(), 0u);
  }
  {
    BaseCodegen cg(code_by_name("box3d1r"));
    EXPECT_EQ(cg.unroll(), 2u);
    EXPECT_GT(cg.spilled_coeffs(), 0u);  // the register-bound regime
  }
  {
    BaseCodegen cg(code_by_name("j3d27pt"));
    EXPECT_GT(cg.spilled_coeffs(), 0u);
  }
}

TEST(BaseCodegen, ProgramsBuildForAllCodesAndCores) {
  for (const StencilCode& sc : all_codes()) {
    BaseCodegen cg(sc);
    KernelLayout lay = layout_for(sc, nullptr);
    for (u32 core = 0; core < 8; ++core) {
      Program p = cg.emit(core, lay);  // builder CHECKs well-formedness
      EXPECT_GT(p.size(), 10u);
      EXPECT_EQ(p.at(p.size() - 1).op, Op::kHalt);
      // The baseline never touches stream registers.
      for (u32 i = 0; i < p.size(); ++i) {
        const Instr& in = p.at(i);
        if (op_class(in.op) == OpClass::kFpCompute || in.op == Op::kFld) {
          EXPECT_GE(in.frd.idx, 3) << sc.name;
        }
        if (in.op == Op::kFsd) {
          EXPECT_GE(in.frs2.idx, 3) << sc.name;
        }
        EXPECT_NE(in.op, Op::kScfgwi);
        EXPECT_NE(in.op, Op::kSsrEn);
      }
    }
  }
}

TEST(SarisCodegen, FrepBodiesFitTheBuffer) {
  for (const StencilCode& sc : all_codes()) {
    SarisCodegen cg(sc);
    if (!cg.use_frep()) continue;
    EXPECT_LE(cg.schedule().ops() * cg.unroll(), kFrepBufferDepth) << sc.name;
  }
}

TEST(SarisCodegen, PointLoopsCarryNoTapLoads) {
  // §2.1: SARIS maps all grid loads to streams, so the static program has
  // (at most) the coefficient prologue and spill stores as FP memory ops —
  // far fewer than the baseline's per-tap loads.
  for (const StencilCode& sc : all_codes()) {
    SarisCodegen scg(sc);
    BaseCodegen bcg(sc);
    KernelLayout lay_s = layout_for(sc, &scg);
    KernelLayout lay_b = layout_for(sc, nullptr);
    Program::Mix ms = scg.emit(0, lay_s).mix();
    Program::Mix mb = bcg.emit(0, lay_b).mix();
    EXPECT_LT(ms.fp_mem, mb.fp_mem) << sc.name;
    // fld only in the prologue (resident coefficients), fsd only for the
    // spill mode's LSU output path.
    u32 expected_flds = scg.stream_coeffs()
                            ? (sc.const_term ? 1u : 0u)
                            : (scg.spill_sr2() > 0
                                   ? sc.n_coeffs - scg.spill_sr2()
                                   : sc.n_coeffs);
    Program p = scg.emit(0, lay_s);
    u32 flds = 0;
    for (u32 i = 0; i < p.size(); ++i) {
      if (p.at(i).op == Op::kFld) ++flds;
    }
    EXPECT_EQ(flds, expected_flds) << sc.name;
  }
}

TEST(Layout, RejectsOversizeFootprint) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  EXPECT_DEATH(
      make_layout(sc, 8, std::vector<std::array<u32, 2>>(8, {0u, 0u}),
                  16 * 1024),
      "exceeds TCDM");
}

TEST(Layout, InputArraysContiguous) {
  const StencilCode& sc = code_by_name("ac_iso_cd");
  SarisCodegen cg(sc);
  KernelLayout lay = layout_for(sc, &cg);
  ASSERT_EQ(lay.inputs.size(), 2u);
  EXPECT_EQ(lay.inputs[1], lay.inputs[0] + lay.tile_bytes);
}

TEST(Layout, CoefficientReplicasSkewAcrossBanks) {
  const StencilCode& sc = code_by_name("box3d1r");
  KernelLayout lay = make_layout(
      sc, 8, std::vector<std::array<u32, 2>>(8, {0u, 0u}), kTcdmSizeBytes);
  ASSERT_EQ(lay.coeffs_per_core.size(), 8u);
  std::set<u32> start_banks;
  for (Addr a : lay.coeffs_per_core) {
    start_banks.insert((a / kWordBytes) % 32);
  }
  EXPECT_GT(start_banks.size(), 4u);
}

}  // namespace
}  // namespace saris
