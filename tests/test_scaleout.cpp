// Unit tests: HBM bandwidth arithmetic and the Manticore-256s scale-out
// estimator.
#include <gtest/gtest.h>

#include "common/sim_error.hpp"
#include "runtime/kernel_runner.hpp"
#include "scaleout/manticore.hpp"
#include "stencil/codes.hpp"
#include "stencil/tiling.hpp"

namespace saris {
namespace {

TEST(Hbm, PaperBandwidthNumbers) {
  HbmConfig h;
  // 3.2 Gb/s/pin x 128 pins = 51.2 GB/s per device.
  EXPECT_DOUBLE_EQ(h.device_gbps(), 51.2);
  // Eight devices: 409.6 GB/s stack bandwidth.
  EXPECT_DOUBLE_EQ(h.total_gbps(), 409.6);
  // Four clusters share one device at 1 GHz: 12.8 B/cycle each.
  EXPECT_DOUBLE_EQ(h.bytes_per_cycle_per_cluster(), 12.8);
}

// The estimator divides by the freq_ghz-derived peak and the per-cluster
// bandwidth share; a zeroed config field must raise a typed error naming the
// field instead of quietly producing NaN figures.
TEST(Manticore, DegenerateConfigRaisesBadConfig) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  RunMetrics m;
  m.cycles = 1000;
  m.fpu_useful_ops = 800;
  m.flops = 1600;
  m.dma_util = 0.8;
  m.core_busy.assign(8, 1000);
  m.per_core.resize(8);

  auto expect_bad = [&](const ManticoreConfig& bad, const char* field) {
    try {
      estimate_scaleout(sc, m, m, bad);
      ADD_FAILURE() << "no error for a bad " << field;
    } catch (const SimError& e) {
      EXPECT_EQ(e.errc(), SimErrc::kBadConfig) << e.what();
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  };
  ManticoreConfig bad;
  bad.hbm.freq_ghz = 0.0;
  expect_bad(bad, "freq_ghz");
  bad = ManticoreConfig{};
  bad.hbm.devices = 0;
  expect_bad(bad, "devices");
  bad = ManticoreConfig{};
  bad.hbm.gbps_per_pin = -1.0;
  expect_bad(bad, "gbps_per_pin");
  bad = ManticoreConfig{};
  bad.hbm.clusters_per_device = 0;
  expect_bad(bad, "clusters_per_device");
  bad = ManticoreConfig{};
  bad.groups = 0;
  expect_bad(bad, "groups");
  bad = ManticoreConfig{};
  bad.cores_per_cluster = 0;
  expect_bad(bad, "cores_per_cluster");
}

TEST(Manticore, SystemShape) {
  ManticoreConfig m;
  EXPECT_EQ(m.total_cores(), 256u);
  // 256 cores x 2 FLOP/cycle x 1 GHz = 512 GFLOP/s peak.
  EXPECT_DOUBLE_EQ(m.peak_gflops(), 512.0);
}

RunMetrics fake_metrics(Cycle cycles, u64 useful, u64 flops,
                        double dma_util) {
  RunMetrics m;
  m.cycles = cycles;
  m.fpu_useful_ops = useful;
  m.flops = flops;
  m.dma_util = dma_util;
  m.core_busy.assign(8, cycles);
  m.per_core.resize(8);
  return m;
}

TEST(Manticore, ComputeBoundKeepsUtilization) {
  const StencilCode& sc = code_by_name("j3d27pt");
  // Compute far slower than the tile transfer: utilization survives.
  RunMetrics base = fake_metrics(400000, 100000, 200000, 0.8);
  RunMetrics fast = fake_metrics(100000, 100000, 200000, 0.8);
  ScaleoutResult r = estimate_scaleout(sc, base, fast);
  EXPECT_FALSE(r.saris.memory_bound);
  EXPECT_GT(r.saris.cmtr, 1.0);
  EXPECT_NEAR(r.saris.fpu_util, 100000.0 / (100000.0 * 8), 1e-9);
  EXPECT_NEAR(r.speedup, 4.0, 1e-9);
}

TEST(Manticore, MemoryBoundDeratesUtilization) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  // Tiny compute time: the HBM share limits everything.
  RunMetrics base = fake_metrics(2000, 8000, 16000, 0.8);
  RunMetrics fast = fake_metrics(1000, 8000, 16000, 0.8);
  ScaleoutResult r = estimate_scaleout(sc, base, fast);
  EXPECT_TRUE(r.saris.memory_bound);
  EXPECT_TRUE(r.base.memory_bound);
  EXPECT_LT(r.saris.cmtr, 1.0);
  // Both memory-bound at the same traffic: no speedup.
  EXPECT_NEAR(r.speedup, 1.0, 1e-9);
  // t_mem = traffic / (12.8 * dma_util).
  double expect_tmem =
      static_cast<double>(tile_traffic(sc).total()) / (12.8 * 0.8);
  EXPECT_NEAR(r.saris.t_mem, expect_tmem, 1e-6);
}

TEST(Manticore, ImbalanceStretchesComputeTime) {
  const StencilCode& sc = code_by_name("j3d27pt");
  RunMetrics balanced = fake_metrics(100000, 50000, 100000, 0.8);
  RunMetrics skewed = balanced;
  skewed.core_busy.assign(8, 80000);
  skewed.core_busy[0] = 100000;  // one straggler
  ScaleoutResult rb = estimate_scaleout(sc, balanced, balanced);
  ScaleoutResult rs = estimate_scaleout(sc, skewed, skewed);
  EXPECT_GT(rs.saris.t_comp, rb.saris.t_comp * 1.05);
}

TEST(Manticore, GflopsConsistentWithUtilization) {
  const StencilCode& sc = code_by_name("box3d1r");
  RunMetrics m = fake_metrics(100000, 80000, 145000, 0.7);
  ScaleoutResult r = estimate_scaleout(sc, m, m);
  // gflops = flops/tile / t_tile * 32 clusters (at 1 GHz).
  double expect = 145000.0 / r.saris.t_tile * 32.0;
  EXPECT_NEAR(r.saris.gflops, expect, 1e-6);
  EXPECT_NEAR(r.saris.frac_peak, expect / 512.0, 1e-9);
}

TEST(Manticore, TotalTimeScalesWithTileCount) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  RunMetrics m = fake_metrics(10000, 8000, 16000, 0.8);
  ScaleoutResult r = estimate_scaleout(sc, m, m);
  double tiles_per_cluster = static_cast<double>(r.tiles) / 32.0;
  EXPECT_NEAR(r.saris.total_time_ms,
              r.saris.t_tile * tiles_per_cluster / 1e9 * 1e3, 1e-9);
}

TEST(ManticoreEndToEnd, PaperShapeHolds) {
  // Spot-check two extremes of Figure 5 with real simulations:
  // jacobi_2d becomes memory-bound, j3d27pt stays compute-bound with a
  // large speedup and the best fraction of peak.
  {
    const StencilCode& sc = code_by_name("jacobi_2d");
    auto [base, saris_m] = run_both(sc);
    ScaleoutResult r = estimate_scaleout(sc, base, saris_m);
    EXPECT_TRUE(r.saris.memory_bound);
    EXPECT_LT(r.saris.cmtr, 0.7);
    // The slower baseline sits much closer to (or beyond) compute-bound.
    EXPECT_GT(r.base.cmtr, 2.0 * r.saris.cmtr);
  }
  {
    const StencilCode& sc = code_by_name("j3d27pt");
    auto [base, saris_m] = run_both(sc);
    ScaleoutResult r = estimate_scaleout(sc, base, saris_m);
    EXPECT_FALSE(r.saris.memory_bound);
    EXPECT_GT(r.speedup, 2.0);
    EXPECT_GT(r.saris.frac_peak, 0.6);
    EXPECT_LT(r.saris.frac_peak, 0.95);
  }
}

}  // namespace
}  // namespace saris
