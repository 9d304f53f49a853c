// HBM2E memory-stack bandwidth model for the Manticore-256s scale-out
// estimate: one stack of eight 3.2 Gb/s/pin devices; each device feeds one
// group of four clusters, and group bandwidth is shared equally (paper §3.3).
#pragma once

#include "common/types.hpp"

namespace saris {

struct HbmConfig {
  u32 devices = 8;
  double gbps_per_pin = 3.2;
  u32 pins_per_device = 128;
  u32 clusters_per_device = 4;
  double freq_ghz = 1.0;  ///< compute clock, for bytes/cycle conversion

  /// Bandwidth of one device in GB/s.
  double device_gbps() const {
    return gbps_per_pin * pins_per_device / 8.0;
  }
  double total_gbps() const { return device_gbps() * devices; }
  /// Fair per-cluster share, in bytes per compute-clock cycle.
  double bytes_per_cycle_per_cluster() const {
    return device_gbps() / clusters_per_device / freq_ghz;
  }

  /// Devices feeding a `clusters`-cluster machine: one per
  /// clusters_per_device clusters, capped at the stack's device count. The
  /// HBM frontend sizes its grant budget with this, and the analytic-vs-
  /// simulated fig5 comparison must price the same machine — keep them on
  /// this one formula.
  u32 devices_for_clusters(u32 clusters) const {
    u32 d = (clusters + clusters_per_device - 1) / clusters_per_device;
    return d < devices ? d : devices;
  }
  /// Aggregate bandwidth of that machine, bytes per compute-clock cycle.
  double bytes_per_cycle_for_clusters(u32 clusters) const {
    return devices_for_clusters(clusters) * device_gbps() / freq_ghz;
  }

  /// The same machine bandwidth as a 16.16 fixed-point word budget — the
  /// rate the HBM frontend deals per cycle. Derived in one place so the
  /// granted budget and the utilization denominator agree exactly: the
  /// rational devices*pins/8 factor is carried in integer arithmetic and
  /// the single floating rounding is a floor, so the frontend can never
  /// grant more than the configured bandwidth (the old llround could round
  /// the rate up and let a saturated run report > 100% utilization).
  u64 bytes_per_cycle_fp_for_clusters(u32 clusters) const;
};

/// Raise SimError(kBadConfig), naming the offending field, unless every
/// HbmConfig field is positive and finite — a zero device count, pin rate,
/// or clock would turn the bandwidth arithmetic above into divisions by
/// zero or a zero peak. Every consumer (scale-out estimator, HBM frontend)
/// validates up front instead of producing NaNs mid-estimate.
void validate(const HbmConfig& hbm);

}  // namespace saris
