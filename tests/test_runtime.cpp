// Unit tests: kernel runner / runtime layer — caller-provided data,
// multi-step stepping, metric plausibility, DMA-utilization shapes.
#include <gtest/gtest.h>

#include <string>

#include "common/sim_error.hpp"
#include "runtime/kernel_runner.hpp"
#include "stencil/codes.hpp"
#include "stencil/reference.hpp"
#include "stencil/tiling.hpp"

namespace saris {
namespace {

/// Expect `fn` to raise a SimError with the given code whose what() contains
/// `needle`; returns the error for further field checks.
template <typename Fn>
SimError expect_sim_error(Fn&& fn, SimErrc errc, const std::string& needle) {
  try {
    fn();
  } catch (const SimError& e) {
    EXPECT_EQ(e.errc(), errc) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
    return e;
  }
  ADD_FAILURE() << "expected SimError(" << sim_errc_name(errc)
                << "), nothing was thrown";
  return SimError(SimErrc::kNone, 0, "");
}

TEST(Runtime, KernelIoReturnsOutputGrid) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  KernelIO io;
  io.inputs.emplace_back(sc.tile_nx, sc.tile_ny);
  io.inputs[0].fill(1.0);
  io.coeffs = {0.2};
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  run_kernel_io(sc, cfg, io);
  ASSERT_EQ(io.outputs.size(), 1u);
  // 0.2 * (5 ones) = 1.0 on every interior point.
  for (u32 y = 1; y < sc.tile_ny - 1; ++y) {
    for (u32 x = 1; x < sc.tile_nx - 1; ++x) {
      EXPECT_NEAR(io.outputs[0].at(x, y), 1.0, 1e-12);
    }
  }
}

TEST(Runtime, SteppingMatchesReferenceStepping) {
  // Three chained time steps through the simulator equal three chained
  // reference steps (within reassociation tolerance compounded).
  const StencilCode& sc = code_by_name("box2d1r");
  std::vector<double> coeffs = sc.default_coeffs();

  Grid<> ref_in(sc.tile_nx, sc.tile_ny);
  ref_in.fill_random(3);
  Grid<> ref_out(sc.tile_nx, sc.tile_ny);
  ref_out.fill(0.0);

  KernelIO io;
  io.inputs.push_back(ref_in);
  io.coeffs = coeffs;
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;

  std::vector<Grid<>> ref_inputs = {ref_in};
  for (u32 s = 0; s < 3; ++s) {
    run_kernel_io(sc, cfg, io);
    reference_step(sc, ref_inputs, coeffs, ref_out);
    // Next inputs: interior from the step, halo unchanged (both sides).
    Grid<> next_sim = io.inputs[0];
    Grid<> next_ref = ref_inputs[0];
    for (u32 y = sc.radius; y < sc.tile_ny - sc.radius; ++y) {
      for (u32 x = sc.radius; x < sc.tile_nx - sc.radius; ++x) {
        next_sim.at(x, y) = io.outputs[0].at(x, y);
        next_ref.at(x, y) = ref_out.at(x, y);
      }
    }
    io.inputs[0] = next_sim;
    ref_inputs[0] = next_ref;
  }
  EXPECT_LT(max_rel_error(sc, io.inputs[0], ref_inputs[0]), 1e-9);
}

TEST(Runtime, MetricsArePlausible) {
  const StencilCode& sc = code_by_name("j2d9pt");
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  RunMetrics m = run_kernel(sc, cfg);
  EXPECT_EQ(m.num_cores(), 8u);
  EXPECT_GT(m.cycles, 1000u);
  EXPECT_GT(m.fpu_util(), 0.0);
  EXPECT_LE(m.fpu_util(), 1.0);
  EXPECT_GT(m.ipc(), 0.0);
  EXPECT_LE(m.ipc(), 2.0);
  EXPECT_GE(m.imbalance(), 1.0);
  EXPECT_LT(m.imbalance(), 1.3);
  EXPECT_LE(m.frac_peak(), 1.0);
  for (Cycle busy : m.core_busy) {
    EXPECT_LE(busy, m.cycles + 1);
  }
  EXPECT_LE(m.tcdm_conflicts, m.tcdm_accesses);
}

TEST(Runtime, DmaUtilHigherFor2dThan3d) {
  // Long 2-D rows burst better than short 3-D rows: the effect feeding
  // the scale-out CMTR differences.
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  RunMetrics m2 = run_kernel(code_by_name("jacobi_2d"), cfg);
  RunMetrics m3 = run_kernel(code_by_name("ac_iso_cd"), cfg);
  EXPECT_GT(m2.dma_util, 0.55);
  EXPECT_GT(m2.dma_util, m3.dma_util + 0.1);
}

TEST(Runtime, OverlapDmaCostsLittle) {
  const StencilCode& sc = code_by_name("star2d3r");
  RunConfig on;
  on.variant = KernelVariant::kSaris;
  RunConfig off = on;
  off.overlap_dma = false;
  RunMetrics m_on = run_kernel(sc, on);
  RunMetrics m_off = run_kernel(sc, off);
  EXPECT_EQ(m_off.dma_bytes, 0u);
  EXPECT_GT(m_on.dma_bytes, 0u);
  // Interference exists but stays in the low percent range.
  EXPECT_LT(m_on.cycles, m_off.cycles + m_off.cycles / 12);
}

// The overlap jobs the DMA moves and tile_traffic, which prices a tile for
// the scale-out model, the roofline and fig5, must agree on every cell.
TEST(Runtime, OverlapJobsMoveTheTileTraffic) {
  RunConfig cfg;
  cfg.cg.verify = false;
  for (const StencilCode& sc : all_codes()) {
    for (KernelVariant v : {KernelVariant::kBase, KernelVariant::kSaris}) {
      const CompiledKernel ck =
          compile_kernel(sc, v, cfg.cg, cfg.cluster.num_cores);
      u64 bytes = 0;
      for (const DmaJob& job : ck.overlap_jobs) bytes += job.total_bytes();
      EXPECT_EQ(bytes, tile_traffic(sc).total())
          << sc.name << "/" << variant_name(v);
    }
  }
}

TEST(Runtime, DefaultToleranceAcceptsReassociationRounding) {
  // The reordered 27-point sums round differently from the reference:
  // 1.03e-10 relative error here, with default settings, on a correct run.
  const StencilCode& sc = code_by_name("j3d27pt");
  RunConfig cfg;
  cfg.variant = KernelVariant::kBase;
  cfg.seed = 12;
  const RunMetrics m = run_kernel(sc, cfg);
  EXPECT_GT(m.max_rel_err, 1e-10);
  EXPECT_LE(m.max_rel_err, cfg.tolerance);
}

TEST(Runtime, VariantNames) {
  EXPECT_STREQ(variant_name(KernelVariant::kBase), "base");
  EXPECT_STREQ(variant_name(KernelVariant::kSaris), "saris");
}

TEST(RuntimeErrors, ConfigurableHangGuardNamesVariantAndElapsed) {
  // A healthy kernel trips a tiny max_cycles budget: a typed, catchable
  // kMaxCyclesExceeded (not an abort) whose diagnostic carries the code,
  // variant, and elapsed cycle count — and whose context fields identify
  // the job.
  const StencilCode& sc = code_by_name("jacobi_2d");
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  cfg.max_cycles = 64;
  SimError e = expect_sim_error([&] { run_kernel(sc, cfg); },
                                SimErrc::kMaxCyclesExceeded,
                                "jacobi_2d/saris: kernel did not halt "
                                "within 64 cycles");
  EXPECT_EQ(e.code(), "jacobi_2d");
  EXPECT_EQ(e.variant(), "saris");
  EXPECT_EQ(e.seed(), cfg.seed);
  EXPECT_FALSE(e.retryable());  // a hung kernel stays hung
}

TEST(RuntimeErrors, WrongInputCountIsTypedBadConfig) {
  const StencilCode& sc = code_by_name("ac_iso_cd");  // needs 2 inputs
  KernelIO io;
  io.inputs.emplace_back(sc.tile_nx, sc.tile_ny, sc.tile_nz);
  io.coeffs = sc.default_coeffs();
  RunConfig cfg;
  SimError e = expect_sim_error([&] { run_kernel_io(sc, cfg, io); },
                                SimErrc::kBadConfig, "input arrays");
  EXPECT_FALSE(e.retryable());  // a bad config never fixes itself
}

TEST(RuntimeErrors, ExecuteKernelChecksInputCount) {
  // The execute stage checks the data shape itself, for callers that hold
  // a compiled artifact and skip run_kernel_io.
  const StencilCode& sc = code_by_name("ac_iso_cd");  // needs 2 inputs
  RunConfig cfg;
  CompiledKernel ck = compile_kernel(sc, cfg.variant, cfg.cg,
                                     cfg.cluster.num_cores);
  Cluster cluster(cfg.cluster);
  KernelIO io;
  io.inputs.emplace_back(sc.tile_nx, sc.tile_ny, sc.tile_nz);
  io.coeffs = sc.default_coeffs();
  expect_sim_error([&] { execute_kernel(ck, cluster, cfg, io); },
                   SimErrc::kBadConfig, "expected 2 input arrays, got 1");
}

TEST(RuntimeErrors, CoreCountThePartitionCannotServeIsTypedBadConfig) {
  // The work partition splits a tile over exactly 8 cores: 0 and 9 cores
  // cannot compile, and 1 or 4 compile (the analysis tests stage such
  // cells by hand) but cannot run a whole tile. None may abort.
  const StencilCode& sc = code_by_name("jacobi_2d");
  for (KernelVariant v : {KernelVariant::kBase, KernelVariant::kSaris}) {
    for (u32 cores : {0u, 1u, 4u, 9u}) {
      RunConfig cfg;
      cfg.variant = v;
      cfg.cluster.num_cores = cores;
      SCOPED_TRACE(std::string(variant_name(v)) + ", " +
                   std::to_string(cores) + " cores");
      SimError e = expect_sim_error([&] { run_kernel(sc, cfg); },
                                    SimErrc::kBadConfig, "work partition");
      EXPECT_FALSE(e.retryable());
    }
  }
}

TEST(RuntimeErrors, WrongCoeffCountIsTypedBadConfig) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  KernelIO io;
  io.inputs.emplace_back(sc.tile_nx, sc.tile_ny);
  io.coeffs = {0.2, 0.3};
  RunConfig cfg;
  expect_sim_error([&] { run_kernel_io(sc, cfg, io); }, SimErrc::kBadConfig,
                   "coefficients");
}

TEST(Runtime, Star7pExampleRunsBothVariants) {
  // The Listing-1 example code works through the same pipeline.
  auto [base, saris_m] = run_both(example_star7p());
  EXPECT_GT(static_cast<double>(base.cycles) / saris_m.cycles, 1.5);
}

}  // namespace
}  // namespace saris
