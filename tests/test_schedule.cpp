// Unit tests: point-loop schedule generation — the FLOP-preservation
// property of reassociation (any chain count yields Table 1's FLOPs),
// structural well-formedness, pair pipelining — and the walker that lowers
// it: operand order, register placement and the round-robin merge.
#include <gtest/gtest.h>

#include <string>

#include "codegen/schedule.hpp"
#include "stencil/codes.hpp"

namespace saris {
namespace {

// FLOPs are invariant under reassociation width — the property that makes
// every simulated variant hit Table 1's counts exactly.
class ChainsSweep
    : public ::testing::TestWithParam<std::tuple<std::string, u32>> {};

TEST_P(ChainsSweep, FlopCountPreserved) {
  const auto& [name, chains] = GetParam();
  const StencilCode& sc = code_by_name(name);
  Schedule s = make_schedule(sc, chains);
  EXPECT_EQ(s.flops(), sc.flops_per_point());
}

TEST_P(ChainsSweep, ExactlyOneFinalOpAndItIsLast) {
  const auto& [name, chains] = GetParam();
  const StencilCode& sc = code_by_name(name);
  Schedule s = make_schedule(sc, chains);
  u32 finals = 0;
  for (const Step& st : s.steps) finals += st.final_out ? 1 : 0;
  EXPECT_EQ(finals, 1u);
  EXPECT_TRUE(s.steps.back().final_out);
}

TEST_P(ChainsSweep, EveryTapConsumedOnce) {
  const auto& [name, chains] = GetParam();
  const StencilCode& sc = code_by_name(name);
  Schedule s = make_schedule(sc, chains);
  std::vector<u32> uses(sc.loads_per_point(), 0);
  for (const Step& st : s.steps) {
    if (st.tap_a >= 0) ++uses[static_cast<u32>(st.tap_a)];
    if (st.tap_b >= 0) ++uses[static_cast<u32>(st.tap_b)];
  }
  for (u32 u : uses) EXPECT_EQ(u, 1u);
}

TEST_P(ChainsSweep, PairProducersAndConsumersBalance) {
  const auto& [name, chains] = GetParam();
  const StencilCode& sc = code_by_name(name);
  Schedule s = make_schedule(sc, chains);
  i32 in_flight = 0;
  i32 max_in_flight = 0;
  for (const Step& st : s.steps) {
    if (st.kind == StepKind::kPairAdd) ++in_flight;
    if (st.kind == StepKind::kFmaPair || st.kind == StepKind::kSeedMulPair) {
      --in_flight;
    }
    ASSERT_GE(in_flight, 0) << "pair consumed before produced";
    max_in_flight = std::max(max_in_flight, in_flight);
  }
  EXPECT_EQ(in_flight, 0);
  if (max_in_flight > 0) {
    EXPECT_LE(static_cast<u32>(max_in_flight), s.tmp_regs);
  }
}

TEST_P(ChainsSweep, ChainIndicesWithinBounds) {
  const auto& [name, chains] = GetParam();
  const StencilCode& sc = code_by_name(name);
  Schedule s = make_schedule(sc, chains);
  EXPECT_GE(s.chains, 1u);
  EXPECT_LE(s.chains, chains);
  for (const Step& st : s.steps) {
    EXPECT_GE(st.chain, 0);
    EXPECT_LT(st.chain, static_cast<i32>(s.chains));
  }
}

std::vector<std::tuple<std::string, u32>> chains_params() {
  std::vector<std::tuple<std::string, u32>> ps;
  for (const StencilCode& sc : all_codes()) {
    for (u32 k : {1u, 2u, 3u, 4u}) ps.emplace_back(sc.name, k);
  }
  return ps;
}

INSTANTIATE_TEST_SUITE_P(
    AllCodesAllChains, ChainsSweep, ::testing::ValuesIn(chains_params()),
    [](const ::testing::TestParamInfo<ChainsSweep::ParamType>& info) {
      return std::get<0>(info.param) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Schedule, JacobiSumScaleShape) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  Schedule s = make_schedule(sc, 2);
  // 2 seed adds + 1 add + 1 combine + 1 scale = 5 ops, 5 FLOPs.
  EXPECT_EQ(s.ops(), 5u);
  EXPECT_EQ(s.steps.back().kind, StepKind::kScale);
}

TEST(Schedule, AcIsoEndsWithPrevSubtract) {
  const StencilCode& sc = code_by_name("ac_iso_cd");
  Schedule s = make_schedule(sc, 2);
  EXPECT_EQ(s.steps.back().kind, StepKind::kSubTap);
  EXPECT_EQ(s.steps.back().tap_a,
            static_cast<i32>(sc.loads_per_point()) - 1);
}

TEST(Schedule, ConstTermSeedsChainZero) {
  const StencilCode& sc = code_by_name("j2d5pt");
  Schedule s = make_schedule(sc, 2);
  bool found = false;
  for (const Step& st : s.steps) {
    if (st.kind == StepKind::kSeedMulTapConst) {
      EXPECT_EQ(st.chain, 0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Schedule, NoConstSeedWithoutConstTerm) {
  const StencilCode& sc = code_by_name("box2d1r");
  Schedule s = make_schedule(sc, 3);
  for (const Step& st : s.steps) {
    EXPECT_NE(st.kind, StepKind::kSeedMulTapConst);
  }
}

TEST(Schedule, PairPipelineDepthControlsTmpRegs) {
  const StencilCode& sc = code_by_name("ac_iso_cd");
  Schedule s1 = make_schedule(sc, 2, /*pair_pipeline=*/1);
  Schedule s3 = make_schedule(sc, 2, /*pair_pipeline=*/3);
  EXPECT_LT(s1.tmp_regs, s3.tmp_regs);
  EXPECT_EQ(s1.flops(), s3.flops());
}

TEST(Schedule, LowerStepOpMapping) {
  EXPECT_EQ(step_row(StepKind::kSeedMulTap).op, Op::kFmulD);
  EXPECT_EQ(step_row(StepKind::kSeedMulTapConst).op, Op::kFmaddD);
  EXPECT_EQ(step_row(StepKind::kFmaTap).op, Op::kFmaddD);
  EXPECT_EQ(step_row(StepKind::kPairAdd).op, Op::kFaddD);
  EXPECT_EQ(step_row(StepKind::kCombine).op, Op::kFaddD);
  EXPECT_EQ(step_row(StepKind::kScale).op, Op::kFmulD);
  EXPECT_EQ(step_row(StepKind::kSubTap).op, Op::kFsubD);
}

// ---- the point walker ----

// Sources that log every call and hand out recognisable registers: tap t
// is f(20 + t), coefficient c is f(10 + c).
struct RecordingSources {
  using Item = Instr;
  std::vector<std::string> calls;

  FReg tap(u32 u, const Step&, i32 tap, std::vector<Instr>&) {
    calls.push_back("u" + std::to_string(u) + " tap" + std::to_string(tap));
    return f(static_cast<u8>(20 + tap));
  }
  FReg coeff(u32 u, i32 c, std::vector<Instr>&) {
    calls.push_back("u" + std::to_string(u) + " coeff" + std::to_string(c));
    return f(static_cast<u8>(10 + c));
  }
  void push(u32 u, const Instr& in, bool final_out, std::vector<Instr>& seq) {
    calls.push_back("u" + std::to_string(u) + (final_out ? " final " : " ") +
                    std::string(op_name(in.op)));
    seq.push_back(in);
  }
};

Step step(StepKind kind, i32 chain = 1) {
  Step st;
  st.kind = kind;
  st.tap_a = 1;
  st.tap_b = kind == StepKind::kSeedAddTaps || kind == StepKind::kPairAdd
                 ? 2
                 : -1;
  st.coeff = 3;
  st.chain = chain;
  return st;
}

TEST(Walker, SourcesOperandsLastSlotFirstThenResult) {
  // Chains at f4 (chain 0) and f5 (chain 1), the pair temporary at f6; a
  // pair consumer follows a producer of taps 1 and 2.
  const FReg c0 = f(4), c1 = f(5), tmp = f(6), ft = f(21), fb = f(22),
             co = f(13), ck = f(17);
  struct Case {
    StepKind kind;
    std::vector<std::string> calls;
    std::array<FReg, 4> regs;  // rd, rs1, rs2, rs3 of the last op
  };
  const std::vector<Case> cases = {
      {StepKind::kSeedMulTap, {"tap1", "coeff3", "fmul.d"}, {c1, co, ft, {}}},
      {StepKind::kSeedMulTapConst,
       {"coeff7", "tap1", "coeff3", "fmadd.d"},
       {c1, co, ft, ck}},
      {StepKind::kFmaTap, {"tap1", "coeff3", "fmadd.d"}, {c1, co, ft, c1}},
      {StepKind::kSeedAddTaps, {"tap2", "tap1", "fadd.d"}, {c1, ft, fb, {}}},
      {StepKind::kAddTap, {"tap1", "fadd.d"}, {c1, c1, ft, {}}},
      {StepKind::kPairAdd, {"tap2", "tap1", "fadd.d"}, {tmp, ft, fb, {}}},
      {StepKind::kSeedMulPair,
       {"tap2", "tap1", "fadd.d", "coeff3", "fmul.d"},
       {c1, co, tmp, {}}},
      {StepKind::kFmaPair,
       {"tap2", "tap1", "fadd.d", "coeff3", "fmadd.d"},
       {c1, co, tmp, c1}},
      {StepKind::kCombine, {"fadd.d"}, {c0, c0, c1, {}}},
      {StepKind::kScale, {"coeff3", "fmul.d"}, {c0, co, c0, {}}},
      {StepKind::kSubTap, {"tap1", "fsub.d"}, {c0, c0, ft, {}}},
  };
  ASSERT_EQ(cases.size(), kStepTable.size());
  for (const Case& c : cases) {
    Schedule s;
    s.chains = 2;
    s.tmp_regs = 1;
    s.const_coeff = 7;
    if (c.kind == StepKind::kSeedMulPair || c.kind == StepKind::kFmaPair) {
      s.steps.push_back(step(StepKind::kPairAdd));
    }
    s.steps.push_back(step(c.kind));
    RecordingSources src;
    std::vector<Instr> prog = lower_points(s, 0, 1, PointRegs{4, 3, 1}, src);
    std::vector<std::string> want;
    for (const std::string& call : c.calls) want.push_back("u0 " + call);
    EXPECT_EQ(src.calls, want) << static_cast<int>(c.kind);
    ASSERT_FALSE(prog.empty());
    const Instr& in = prog.back();
    EXPECT_EQ(in.op, step_row(c.kind).op);
    EXPECT_EQ((std::array<FReg, 4>{in.frd, in.frs1, in.frs2, in.frs3}),
              c.regs)
        << static_cast<int>(c.kind);
  }
}

TEST(Walker, PlacesChainsAndPairTemporariesAtTheStride) {
  // Two chains and two rotating pair temporaries: logical registers 0-1
  // are the chains, 2-3 the temporaries. Three pairs in flight reuse the
  // first temporary for the third.
  Schedule s;
  s.chains = 2;
  s.tmp_regs = 2;
  s.steps = {step(StepKind::kPairAdd),    step(StepKind::kPairAdd),
             step(StepKind::kFmaPair, 1), step(StepKind::kPairAdd),
             step(StepKind::kFmaPair, 0), step(StepKind::kFmaPair, 1),
             step(StepKind::kCombine, 1)};
  s.steps.back().final_out = true;
  for (u32 stride : {1u, 3u}) {
    // Instance 1 of a plan that gives each instance 4 * stride registers.
    RecordingSources src;
    std::vector<Instr> p =
        lower_points(s, 1, 1, PointRegs{3, 4 * stride, stride}, src);
    auto reg = [&](u32 l) {
      return f(static_cast<u8>(3 + 4 * stride + l * stride));
    };
    ASSERT_EQ(p.size(), 7u);
    EXPECT_EQ(p[0].frd, reg(2)) << stride;
    EXPECT_EQ(p[1].frd, reg(3)) << stride;
    EXPECT_EQ(p[2].frs2, reg(2)) << stride;
    EXPECT_EQ(p[2].frd, reg(1)) << stride;
    EXPECT_EQ(p[2].frs3, reg(1)) << stride;
    EXPECT_EQ(p[3].frd, reg(2)) << stride;
    EXPECT_EQ(p[4].frs2, reg(3)) << stride;
    EXPECT_EQ(p[4].frd, reg(0)) << stride;
    EXPECT_EQ(p[5].frs2, reg(2)) << stride;
    EXPECT_EQ(p[6].frd, reg(0)) << stride;
    EXPECT_EQ(p[6].frs1, reg(0)) << stride;
    EXPECT_EQ(p[6].frs2, reg(1)) << stride;
    EXPECT_EQ(src.calls.back(), "u1 final fadd.d");
  }
}

TEST(Walker, MergesInstancesRoundRobin) {
  // Instance 0 of a kSubTap-ended point and instance 1 interleave op by op;
  // instance u's registers start u * 3 above instance 0's.
  Schedule s;
  s.chains = 1;
  s.steps = {step(StepKind::kSeedAddTaps, 0), step(StepKind::kSubTap, 0)};
  RecordingSources src;
  std::vector<Instr> p = lower_points(s, 0, 2, PointRegs{4, 3, 1}, src);
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0].op, Op::kFaddD);
  EXPECT_EQ(p[0].frd, f(4));
  EXPECT_EQ(p[1].op, Op::kFaddD);
  EXPECT_EQ(p[1].frd, f(7));
  EXPECT_EQ(p[2].op, Op::kFsubD);
  EXPECT_EQ(p[2].frd, f(4));
  EXPECT_EQ(p[3].op, Op::kFsubD);
  EXPECT_EQ(p[3].frd, f(7));
}

TEST(Schedule, DefaultChainsReasonable) {
  for (const StencilCode& sc : all_codes()) {
    u32 k = default_chains(sc);
    EXPECT_GE(k, 1u);
    EXPECT_LE(k, 3u);
  }
}

}  // namespace
}  // namespace saris
