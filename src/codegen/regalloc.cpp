#include "codegen/regalloc.hpp"

namespace saris {

namespace {
u32 strided_count(u32 extent, u32 phase, u32 stride) {
  if (phase >= extent) return 0;
  return (extent - 1 - phase) / stride + 1;
}
}  // namespace

CoreWork core_work(const StencilCode& sc, u32 core) {
  SARIS_CHECK(core < kPartitionCores,
              "core id " << core << " outside the cluster");
  CoreWork w;
  if (sc.dims == 2) {
    w.step_x = kInterleaveX;
    w.step_y = kInterleaveY;
    w.step_z = 1;
    w.phase_x = core % kInterleaveX;
    w.phase_y = core / kInterleaveX;
    w.phase_z = 0;
    w.planes = 1;
  } else {
    w.step_x = 2;
    w.step_y = 2;
    w.step_z = 2;
    w.phase_x = core % 2;
    w.phase_y = (core / 2) % 2;
    w.phase_z = core / 4;
    w.planes = strided_count(sc.interior_nz(), w.phase_z, w.step_z);
  }
  w.pts_row = strided_count(sc.interior_nx(), w.phase_x, w.step_x);
  w.rows = strided_count(sc.interior_ny(), w.phase_y, w.step_y);
  return w;
}

u32 owning_core(const StencilCode& sc, u32 x, u32 y, u32 z) {
  const u32 r = sc.radius;
  const u32 ix = x - r;
  const u32 iy = y - r;
  if (sc.dims == 2) {
    return (iy % kInterleaveY) * kInterleaveX + ix % kInterleaveX;
  }
  const u32 iz = z - r;
  return (iz % 2) * 4 + (iy % 2) * 2 + ix % 2;
}

}  // namespace saris
