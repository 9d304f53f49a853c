#include "scaleout/hbm.hpp"

#include <cmath>

#include "common/sim_error.hpp"

namespace saris {

namespace {
// 8 devices x 3.2 Gb/s/pin x 128 pins = 409.6 GB/s stack bandwidth,
// 12.8 B/cycle per cluster at 1 GHz.
static_assert(sizeof(HbmConfig) > 0);
}  // namespace

u64 HbmConfig::bytes_per_cycle_fp_for_clusters(u32 clusters) const {
  // bytes/cycle = devices * pins * gbps_per_pin / (8 * freq_ghz), scaled by
  // 2^16. The integer part of the rational (devices * pins * 2^16 / 8 =
  // devices * pins * 8192) stays exact in u64; the two double factors are
  // applied in extended precision with a single final floor.
  u64 exact = static_cast<u64>(devices_for_clusters(clusters)) *
              pins_per_device * 8192u;
  long double rate =
      static_cast<long double>(exact) * gbps_per_pin / freq_ghz;
  return static_cast<u64>(std::floor(rate));
}

void validate(const HbmConfig& hbm) {
  if (hbm.devices < 1) {
    SARIS_RAISE(SimErrc::kBadConfig, 0, "HbmConfig: devices must be >= 1");
  }
  if (hbm.pins_per_device < 1) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                "HbmConfig: pins_per_device must be >= 1");
  }
  if (hbm.clusters_per_device < 1) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                "HbmConfig: clusters_per_device must be >= 1");
  }
  if (!(std::isfinite(hbm.gbps_per_pin) && hbm.gbps_per_pin > 0.0)) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                "HbmConfig: gbps_per_pin must be positive (got "
                    << hbm.gbps_per_pin << ")");
  }
  if (!(std::isfinite(hbm.freq_ghz) && hbm.freq_ghz > 0.0)) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                "HbmConfig: freq_ghz must be positive (got " << hbm.freq_ghz
                                                             << ")");
  }
}

}  // namespace saris
