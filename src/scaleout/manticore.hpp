// Manticore-256s scale-out estimator (paper §3.3).
//
// One compute chiplet: 8 groups x 4 clusters x 8 cores = 256 cores, one
// HBM2E stack. Per tile: compute time = the measured single-cluster window
// scaled by the measured core-imbalance distribution (applied again across
// clusters, as the paper assumes); memory time = tile traffic over the
// cluster's fair bandwidth share derated by the measured DMA bandwidth
// utilization. Double buffering overlaps the two, so tile latency is their
// maximum; CMTR = t_comp / t_mem classifies memory-boundedness.
#pragma once

#include "runtime/metrics.hpp"
#include "scaleout/hbm.hpp"
#include "stencil/stencil_def.hpp"

namespace saris {

struct ManticoreConfig {
  u32 groups = 8;
  u32 clusters_per_group = 4;
  u32 cores_per_cluster = 8;
  HbmConfig hbm{};

  u32 total_cores() const {
    return groups * clusters_per_group * cores_per_cluster;
  }
  /// System peak, GFLOP/s (FMA = 2 FLOP/cycle/core).
  double peak_gflops() const {
    return 2.0 * total_cores() * hbm.freq_ghz;
  }
};

struct VariantScaleout {
  double t_comp = 0.0;  ///< cycles per tile, incl. cross-cluster imbalance
  double t_mem = 0.0;   ///< cycles per tile at shared HBM bandwidth
  double t_tile = 0.0;  ///< max of the two (double buffered)
  double cmtr = 0.0;    ///< compute-to-memory time ratio
  bool memory_bound = false;
  double fpu_util = 0.0;
  double gflops = 0.0;      ///< whole-system throughput
  double frac_peak = 0.0;
  double total_time_ms = 0.0;  ///< one time iteration over the full grid
};

struct ScaleoutResult {
  VariantScaleout base;
  VariantScaleout saris;
  double speedup = 0.0;
  u64 tiles = 0;
};

/// Raise SimError(kBadConfig), naming the offending field, unless the
/// machine shape is non-degenerate (all counts >= 1 and the embedded
/// HbmConfig valid): the estimator divides by the freq_ghz-derived peak and
/// the per-cluster bandwidth share, and a zeroed field would silently turn
/// the whole figure into NaNs.
void validate(const ManticoreConfig& cfg);

ScaleoutResult estimate_scaleout(const StencilCode& sc,
                                 const RunMetrics& base,
                                 const RunMetrics& saris,
                                 const ManticoreConfig& cfg = {});

}  // namespace saris
