#include "scaleout/manticore.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/sim_error.hpp"
#include "stencil/tiling.hpp"

namespace saris {

namespace {

VariantScaleout variant_estimate(const StencilCode& sc, const RunMetrics& m,
                                 const ManticoreConfig& cfg, u64 tiles,
                                 double dma_util) {
  VariantScaleout v;
  double imb = m.imbalance();
  v.t_comp = static_cast<double>(m.cycles) * imb;

  TileTraffic traffic = tile_traffic(sc);
  double bw = cfg.hbm.bytes_per_cycle_per_cluster();
  v.t_mem = static_cast<double>(traffic.total()) / (bw * dma_util);

  v.t_tile = std::max(v.t_comp, v.t_mem);
  v.cmtr = v.t_comp / v.t_mem;
  v.memory_bound = v.t_mem > v.t_comp;

  double useful = static_cast<double>(m.fpu_useful_ops);
  v.fpu_util = useful / (v.t_tile * cfg.cores_per_cluster);

  u32 clusters = cfg.groups * cfg.clusters_per_group;
  double flops_per_tile = static_cast<double>(m.flops);
  v.gflops = flops_per_tile / v.t_tile * clusters * cfg.hbm.freq_ghz;
  v.frac_peak = v.gflops / cfg.peak_gflops();

  double tiles_per_cluster =
      static_cast<double>(tiles) / static_cast<double>(clusters);
  v.total_time_ms =
      v.t_tile * tiles_per_cluster / (cfg.hbm.freq_ghz * 1e9) * 1e3;
  return v;
}

}  // namespace

void validate(const ManticoreConfig& cfg) {
  if (cfg.groups < 1) {
    SARIS_RAISE(SimErrc::kBadConfig, 0, "ManticoreConfig: groups must be >= 1");
  }
  if (cfg.clusters_per_group < 1) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                "ManticoreConfig: clusters_per_group must be >= 1");
  }
  if (cfg.cores_per_cluster < 1) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                "ManticoreConfig: cores_per_cluster must be >= 1");
  }
  validate(cfg.hbm);
}

ScaleoutResult estimate_scaleout(const StencilCode& sc,
                                 const RunMetrics& base,
                                 const RunMetrics& saris,
                                 const ManticoreConfig& cfg) {
  validate(cfg);
  ScaleoutResult r;
  r.tiles = scaleout_tiles(sc);
  // The paper assumes "the mean DMA bandwidth utilization measured in our
  // single-cluster experiments" — one number per code, applied to both
  // variants (their bursts have identical geometry).
  double dma_util =
      std::max(0.05, 0.5 * (base.dma_util + saris.dma_util));
  r.base = variant_estimate(sc, base, cfg, r.tiles, dma_util);
  r.saris = variant_estimate(sc, saris, cfg, r.tiles, dma_util);
  SARIS_CHECK(r.saris.t_tile > 0.0, "degenerate scale-out estimate");
  r.speedup = r.base.t_tile / r.saris.t_tile;
  return r;
}

}  // namespace saris
