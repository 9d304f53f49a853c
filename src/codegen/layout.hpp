// TCDM memory layout for one kernel run.
//
// Allocation order matters in one place: input arrays are contiguous so
// indirect-stream indices (which are plain element offsets from one base)
// can reach every input array — this is how SARIS streams any number of I/O
// arrays (paper §2.1) and, for register-bound codes, coefficient tables.
#pragma once

#include <array>
#include <vector>

#include "common/types.hpp"
#include "stencil/stencil_def.hpp"

namespace saris {

struct IdxArraySpec {
  Addr addr = 0;
  u32 count = 0;  ///< number of 16-bit indices
};

struct KernelLayout {
  // Input array 0 (with halo), then further input arrays back-to-back.
  std::vector<Addr> inputs;
  Addr output = 0;
  /// Per-core coefficient-table replicas. Replication (plus a one-word pad
  /// that skews consecutive copies across banks) keeps eight cores reading
  /// coefficients in lockstep from colliding on the same TCDM banks.
  std::vector<Addr> coeffs_per_core;

  u32 row_bytes = 0;    ///< tile row pitch (tile_nx * 8)
  u32 plane_bytes = 0;  ///< tile plane pitch (tile_nx * tile_ny * 8)
  u64 tile_bytes = 0;   ///< bytes of one full tile (incl. halo)

  /// Per-core, per-indirect-lane index arrays (saris variant only).
  std::vector<std::array<IdxArraySpec, 2>> core_idx;

  Addr top = 0;  ///< allocation watermark (must stay within TCDM)

  Addr input_addr(u32 array) const { return inputs.at(array); }
  Addr coeffs_for(u32 core) const { return coeffs_per_core.at(core); }
};

/// Build the layout. `idx_counts[core][lane]` gives the number of 16-bit
/// indices each per-core index array needs (empty for the baseline).
KernelLayout make_layout(const StencilCode& sc, u32 num_cores,
                         const std::vector<std::array<u32, 2>>& idx_counts,
                         u32 tcdm_bytes);

}  // namespace saris
