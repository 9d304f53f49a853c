// Cross-module property tests: simulator determinism, variant agreement,
// linearity of the simulated kernels, option-space sweeps that must all
// still verify against the golden reference.
#include <gtest/gtest.h>

#include "runtime/kernel_runner.hpp"
#include "stencil/codes.hpp"

namespace saris {
namespace {

TEST(Properties, SimulationIsDeterministic) {
  const StencilCode& sc = code_by_name("star3d2r");
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  RunMetrics a = run_kernel(sc, cfg);
  RunMetrics b = run_kernel(sc, cfg);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.fpu_useful_ops, b.fpu_useful_ops);
  EXPECT_EQ(a.tcdm_conflicts, b.tcdm_conflicts);
  EXPECT_EQ(a.max_rel_err, b.max_rel_err);
}

TEST(Properties, SeedChangesDataNotTiming) {
  // Timing is data-independent (no value-dependent control flow): two seeds
  // must give identical cycle counts.
  const StencilCode& sc = code_by_name("box2d1r");
  RunConfig a;
  a.variant = KernelVariant::kSaris;
  a.seed = 1;
  RunConfig b = a;
  b.seed = 999;
  EXPECT_EQ(run_kernel(sc, a).cycles, run_kernel(sc, b).cycles);
}

// Every cell of the option space must still produce verified results —
// run_kernel aborts internally on mismatch, so these are correctness sweeps.
class OptionSweep
    : public ::testing::TestWithParam<std::tuple<std::string, u32, u32>> {};

TEST_P(OptionSweep, SarisVerifiesUnderForcedConfig) {
  const auto& [name, unroll, chains] = GetParam();
  const StencilCode& sc = code_by_name(name);
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  cfg.cg.unroll = unroll;
  cfg.cg.chains = chains;
  RunMetrics m = run_kernel(sc, cfg);
  EXPECT_LE(m.max_rel_err, cfg.tolerance);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, OptionSweep,
    ::testing::Values(std::make_tuple("jacobi_2d", 1u, 1u),
                      std::make_tuple("jacobi_2d", 2u, 2u),
                      std::make_tuple("jacobi_2d", 3u, 2u),
                      std::make_tuple("j2d5pt", 1u, 2u),
                      std::make_tuple("j2d5pt", 2u, 3u),
                      std::make_tuple("box2d1r", 1u, 2u),
                      std::make_tuple("box2d1r", 1u, 3u),
                      std::make_tuple("star2d3r", 1u, 3u),
                      std::make_tuple("star3d2r", 1u, 2u),
                      std::make_tuple("ac_iso_cd", 1u, 2u),
                      std::make_tuple("ac_iso_cd", 2u, 2u)),
    [](const ::testing::TestParamInfo<OptionSweep::ParamType>& info) {
      return std::get<0>(info.param) + "_u" +
             std::to_string(std::get<1>(info.param)) + "_k" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Properties, NoFrepStillVerifiesAndIsSlower) {
  const StencilCode& sc = code_by_name("box2d1r");
  RunConfig on;
  on.variant = KernelVariant::kSaris;
  RunConfig off = on;
  off.cg.use_frep = false;
  RunMetrics m_on = run_kernel(sc, on);
  RunMetrics m_off = run_kernel(sc, off);
  // FREP removes per-block fetch overhead; disabling it must not win.
  EXPECT_LE(m_on.cycles, m_off.cycles + m_off.cycles / 10);
}

TEST(Properties, ForcedCoeffStreamingVerifies) {
  const StencilCode& sc = code_by_name("box3d1r");
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  cfg.cg.stream_coeffs = 1;
  RunMetrics m = run_kernel(sc, cfg);
  EXPECT_LE(m.max_rel_err, cfg.tolerance);
  EXPECT_GT(m.ssr_elems, 0u);
}

TEST(Properties, BaseForcedUnrollVerifies) {
  for (u32 u : {1u, 2u, 4u}) {
    const StencilCode& sc = code_by_name("j2d9pt");
    RunConfig cfg;
    cfg.variant = KernelVariant::kBase;
    cfg.cg.unroll = u;
    RunMetrics m = run_kernel(sc, cfg);
    EXPECT_LE(m.max_rel_err, cfg.tolerance) << "unroll " << u;
  }
}

TEST(Properties, LinearityOfSimulatedKernel) {
  // star2d3r has no constant term: scaling the input by 3 scales the
  // simulated output by 3. Uses linearity of the reference as the oracle —
  // the kernel runner verifies each run against its own golden reference,
  // so this test checks the *simulated* datapath end to end.
  const StencilCode& sc = code_by_name("star2d3r");
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  cfg.seed = 17;
  RunMetrics m = run_kernel(sc, cfg);  // would abort on nonlinearity via ref
  EXPECT_LE(m.max_rel_err, cfg.tolerance);
}

TEST(Properties, SarisBeatsBaseEverywhere) {
  for (const StencilCode& sc : all_codes()) {
    auto [base, saris_m] = run_both(sc);
    EXPECT_GT(static_cast<double>(base.cycles) / saris_m.cycles, 1.5)
        << sc.name;
    EXPECT_GT(saris_m.fpu_util(), 0.65) << sc.name;
    EXPECT_LT(base.fpu_util(), 0.5) << sc.name;
  }
}

TEST(Properties, StallAccountingCoversWindow) {
  // Per core: the integer side tiles the core's busy window (+1 for the
  // halt cycle), which lies inside the run's window, with the overlap DMA
  // on (test_cost's conservation cells run without it).
  const StencilCode& sc = code_by_name("j2d9pt");
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  RunMetrics m = run_kernel(sc, cfg);
  for (std::size_t c = 0; c < m.per_core.size(); ++c) {
    EXPECT_EQ(m.per_core[c].int_side() + 1, m.core_busy[c]) << "core " << c;
    EXPECT_LE(m.core_busy[c], m.cycles) << "core " << c;
  }
}

TEST(Properties, IndexTrafficMatchesLoads) {
  // Indirect streams fetch one 16-bit index per grid load: the packed index
  // words fetched must be about loads/4 (plus per-row rounding).
  const StencilCode& sc = code_by_name("star2d3r");
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  RunMetrics m = run_kernel(sc, cfg);
  u64 loads = static_cast<u64>(sc.loads_per_point()) * sc.interior_points();
  EXPECT_GE(m.ssr_idx_words * 4, loads);
  EXPECT_LE(m.ssr_idx_words * 4, loads + loads / 2);
}

}  // namespace
}  // namespace saris
