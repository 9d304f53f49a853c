#include "codegen/layout.hpp"

#include "common/log.hpp"

namespace saris {

namespace {
Addr align8(Addr a) { return (a + 7u) & ~7u; }
}  // namespace

KernelLayout make_layout(const StencilCode& sc, u32 num_cores,
                         const std::vector<std::array<u32, 2>>& idx_counts,
                         u32 tcdm_bytes) {
  KernelLayout lay;
  lay.row_bytes = sc.tile_nx * kWordBytes;
  lay.plane_bytes = sc.tile_nx * sc.tile_ny * kWordBytes;
  lay.tile_bytes = sc.tile_points() * kWordBytes;

  Addr cursor = 0;
  auto take = [&](u64 bytes) {
    Addr a = cursor;
    cursor = align8(cursor + static_cast<Addr>(bytes));
    return a;
  };

  // Input arrays contiguous (indirect indices reach across them).
  for (u32 i = 0; i < sc.n_inputs; ++i) {
    lay.inputs.push_back(take(lay.tile_bytes));
  }
  lay.output = take(lay.tile_bytes);
  for (u32 c = 0; c < num_cores; ++c) {
    // +1 word pad: consecutive replicas start on different banks.
    lay.coeffs_per_core.push_back(
        take((static_cast<u64>(sc.n_coeffs) + 1) * sizeof(double)));
  }

  for (u32 c = 0; c < static_cast<u32>(idx_counts.size()); ++c) {
    std::array<IdxArraySpec, 2> specs{};
    for (u32 l = 0; l < 2; ++l) {
      specs[l].count = idx_counts[c][l];
      specs[l].addr =
          idx_counts[c][l] > 0 ? take(idx_counts[c][l] * sizeof(u16)) : 0;
    }
    lay.core_idx.push_back(specs);
  }

  lay.top = cursor;
  SARIS_CHECK(lay.top <= tcdm_bytes,
              "kernel layout (" << lay.top << " B) exceeds TCDM ("
                                << tcdm_bytes << " B) for " << sc.name);
  return lay;
}

}  // namespace saris
