// Static cost pass validation + stall-accounting conservation, over every
// (code, variant) cell of the matrix.
//
// Measured runs use overlap_dma=false: the priced run has no DMA (DMA
// influences cores only through bank conflicts, which the ideal TCDM
// excludes by construction), and the conservation laws need the compute
// window itself — with overlap enabled the cluster runs extra drain cycles
// after the last halt that keep crediting FPU idle time.
//
// Accuracy contract under test (see analysis/cost.hpp):
//   * exact cells (every core halted + provably conflict-free core
//     traffic): predicted cycles, busy, and every per-cause stall counter
//     equal the measured CorePerf bit-for-bit;
//   * banded cells (bank conflicts apply): predicted cycles are an
//     optimistic bound within 10% of measured.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/verifier.hpp"
#include "isa/builder.hpp"
#include "runtime/kernel_runner.hpp"
#include "runtime/plan_cache.hpp"
#include "ssr/ssr_config.hpp"
#include "stencil/codes.hpp"

namespace saris {
namespace {

constexpr u32 kCores = 8;
constexpr double kCycleBand = 0.10;  ///< banded cells: 10% relative error

struct Cell {
  RunMetrics measured;
  std::shared_ptr<const CompiledKernel> ck;
};

Cell run_cell(const std::string& name, KernelVariant variant) {
  const StencilCode& sc = code_by_name(name);
  RunConfig cfg;
  cfg.variant = variant;
  cfg.cg.analyze_cost = true;
  cfg.overlap_dma = false;
  Cell cell;
  cell.measured = run_kernel(sc, cfg);
  // Same key as run_kernel used: a cache hit returning the same artifact,
  // cost report included.
  cell.ck = PlanCache::global().get_or_compile(sc, variant, cfg.cg, kCores);
  return cell;
}

class CostModelTest : public ::testing::TestWithParam<
                          std::tuple<std::string, KernelVariant>> {};

// ---- satellite: stall-accounting conservation ----------------------------
// Every integer-step outcome and every FPU-tick outcome bumps exactly one
// counter, so the counters must tile the core's busy window (+1 for the
// halt-execution cycle) and the cluster's compute window respectively —
// with or without bank conflicts. Guards counter drift that would silently
// corrupt the cost model's validation target.
TEST_P(CostModelTest, StallAccountingConservation) {
  const auto& [name, variant] = GetParam();
  Cell cell = run_cell(name, variant);
  const RunMetrics& m = cell.measured;
  ASSERT_EQ(m.per_core.size(), kCores);
  ASSERT_EQ(m.core_busy.size(), kCores);
  for (u32 c = 0; c < kCores; ++c) {
    const CorePerf& p = m.per_core[c];
    EXPECT_EQ(p.int_side() + 1, m.core_busy[c])
        << "integer-side conservation, core " << c;
    EXPECT_EQ(p.fpu_side(), m.cycles) << "FPU-side conservation, core " << c;
  }
}

// ---- tentpole: predicted cycles and per-cause stall attribution ----------
TEST_P(CostModelTest, PredictionMeetsAccuracyContract) {
  const auto& [name, variant] = GetParam();
  Cell cell = run_cell(name, variant);
  const RunMetrics& m = cell.measured;
  ASSERT_NE(cell.ck->verify_report, nullptr);
  ASSERT_TRUE(cell.ck->verify_report->cost.has_value());
  const CostReport& cost = *cell.ck->verify_report->cost;

  ASSERT_TRUE(cost.complete) << "priced run did not halt";
  ASSERT_EQ(cost.cores.size(), kCores);

  if (cost.exact) {
    EXPECT_EQ(cost.predicted_cycles, m.cycles);
    for (u32 c = 0; c < kCores; ++c) {
      const CorePerf& pred = cost.cores[c].perf;
      const CorePerf& meas = m.per_core[c];
      EXPECT_EQ(cost.cores[c].busy, m.core_busy[c]) << "core " << c;
      for (const CounterRow& r : kCounterTable) {
        EXPECT_EQ(pred.*r.field, meas.*r.field)
            << "core " << c << ' ' << r.name;
      }
    }
  } else {
    // Banded: the ideal TCDM never loses arbitration, so the prediction is
    // an optimistic bound, and the documented band holds.
    EXPECT_LE(cost.predicted_cycles, m.cycles);
    const double rel =
        static_cast<double>(m.cycles - cost.predicted_cycles) /
        static_cast<double>(m.cycles);
    EXPECT_LE(rel, kCycleBand)
        << "predicted " << cost.predicted_cycles << " vs measured "
        << m.cycles;
  }
}

// The conservation laws hold for the priced run's books too, and its per-pc
// stall table splits the four FPU stall counters exactly.
TEST_P(CostModelTest, PredictedCountersConserve) {
  const auto& [name, variant] = GetParam();
  Cell cell = run_cell(name, variant);
  const CostReport& cost = *cell.ck->verify_report->cost;
  ASSERT_TRUE(cost.complete);
  for (u32 c = 0; c < cost.cores.size(); ++c) {
    const CorePerf& p = cost.cores[c].perf;
    EXPECT_EQ(p.int_side() + 1, cost.cores[c].busy) << "core " << c;
    EXPECT_EQ(p.fpu_side(), cost.predicted_cycles) << "core " << c;
    for (const CounterRow& r : kCounterTable) {
      if (r.tally == Tally::kFpuStall) {
        ASSERT_NE(r.by_pc, nullptr) << r.name;
      }
      if (r.by_pc == nullptr) continue;
      u64 sum = 0;
      for (const PcStalls& s : cost.cores[c].pc_stalls) sum += s.*r.by_pc;
      EXPECT_EQ(sum, p.*r.field) << "core " << c << ' ' << r.name;
    }
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
    AllCodes, CostModelTest, ::testing::ValuesIn(all_params()),
    [](const ::testing::TestParamInfo<CostModelTest::ParamType>& info) {
      return std::get<0>(info.param) + std::string("_") +
             variant_name(std::get<1>(info.param));
    });

// ---- the priced run's bank record ----------------------------------------

/// The priced run of one core over a hand-built layout (input0
/// [0x1000, 0x2000), input1 [0x2000, 0x3000), output [0x3000, 0x4000)):
/// it writes `cfg`'s (word, value) pairs to SSR lane `lane`, the last one a
/// launch, pops all `elems` elements of the stream and halts.
CostReport price_stream(u32 lane, const std::vector<std::pair<u32, i32>>& cfg,
                        u32 elems) {
  ProgramBuilder b;
  for (const auto& [word, value] : cfg) {
    b.li(x(5), value);
    b.scfgwi(x(5), lane, word);
  }
  b.ssr_enable();
  for (u32 k = 0; k < elems; ++k) b.fmv_d(f(4), f(lane));
  b.ssr_disable();
  b.halt();
  CompiledKernel ck;
  ck.n_cores = 1;
  ck.tcdm_bytes = kTcdmSizeBytes;
  ck.programs.push_back(b.build());
  ck.layout.inputs = {0x1000, 0x2000};
  ck.layout.output = 0x3000;
  ck.layout.tile_bytes = 0x1000;
  const VerifyReport rep = verify_kernel(ck);
  EXPECT_TRUE(rep.ok());
  EXPECT_TRUE(rep.absint.all_complete);
  CostReport cost = analyze_cost(ck, rep);
  EXPECT_TRUE(cost.complete);
  EXPECT_EQ(cost.port_banks.size(), kCorePorts);
  EXPECT_TRUE(cost.conflict_free());
  return cost;
}

TEST(CostBanks, ZeroStrideOuterDimension) {
  // Lane 2 reads the four words at 0x3FE0 (words 0x7FC..0x7FF, banks
  // 28-31) five times over.
  const CostReport cost = price_stream(2,
                                       {{kSsrBound0, 4},
                                        {kSsrStride0, 8},
                                        {kSsrBound1, 5},
                                        {kSsrStride1, 0},
                                        {kSsrLaunchRead, 0x3FE0}},
                                       20);
  std::array<u64, kTcdmBanks> banks{};
  for (u32 b = 28; b < 32; ++b) banks[b] = 5;
  EXPECT_EQ(cost.port_banks.at(kPortSsr2), banks);
}

TEST(CostBanks, AffineReadStraddlingTwoArenas) {
  // Lane 0 reads 64 words from 0x1F00, across input0 into input1: twice
  // round the 32 banks.
  const CostReport cost = price_stream(
      0, {{kSsrBound0, 64}, {kSsrStride0, 8}, {kSsrLaunchRead, 0x1F00}}, 64);
  std::array<u64, kTcdmBanks> banks{};
  banks.fill(2);
  EXPECT_EQ(cost.port_banks.at(kPortSsr0), banks);
}

// ---- plumbing ------------------------------------------------------------

TEST(CostPlumbing, DefaultCompileCarriesNoCostReport) {
  const StencilCode& sc = code_by_name("j2d5pt");
  CompiledKernel ck =
      compile_kernel(sc, KernelVariant::kSaris, CodegenOptions{}, kCores);
  ASSERT_NE(ck.verify_report, nullptr);
  EXPECT_FALSE(ck.verify_report->cost.has_value());
}

TEST(CostPlumbing, AnalyzeWithoutVerifyStillAnalyzes) {
  const StencilCode& sc = code_by_name("j2d5pt");
  CodegenOptions cg;
  cg.verify = false;
  cg.analyze_cost = true;
  CompiledKernel ck = compile_kernel(sc, KernelVariant::kSaris, cg, kCores);
  ASSERT_NE(ck.verify_report, nullptr);
  ASSERT_TRUE(ck.verify_report->cost.has_value());
  EXPECT_TRUE(ck.verify_report->cost->complete);
}

TEST(CostPlumbing, AnalyzeCostIsPartOfThePlanCacheKey) {
  CodegenOptions a;
  CodegenOptions b;
  b.analyze_cost = true;
  EXPECT_FALSE(a == b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(CostPlumbing, PressureExportCoversEveryCore) {
  const StencilCode& sc = code_by_name("j2d5pt");
  CompiledKernel ck =
      compile_kernel(sc, KernelVariant::kSaris, CodegenOptions{}, kCores);
  const VerifyReport& rep = *ck.verify_report;
  ASSERT_EQ(rep.pressure.size(), kCores);
  for (u32 c = 0; c < kCores; ++c) {
    // Generated kernels always keep at least one loop counter and one FP
    // value live somewhere, and can't exceed the register files.
    EXPECT_GT(rep.pressure[c].max_live_x, 0u) << "core " << c;
    EXPECT_GT(rep.pressure[c].max_live_f, 0u) << "core " << c;
    EXPECT_LE(rep.pressure[c].max_live_x, kNumXRegs) << "core " << c;
    EXPECT_LE(rep.pressure[c].max_live_f, kNumFRegs) << "core " << c;
  }
}

}  // namespace
}  // namespace saris
