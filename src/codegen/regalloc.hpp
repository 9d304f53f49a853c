// Register pools and work partitioning shared by the code generators.
#pragma once

#include "common/log.hpp"
#include "isa/reg.hpp"
#include "stencil/stencil_def.hpp"

namespace saris {

/// Bump allocator over a contiguous register range; CHECKs on exhaustion so
/// codegen register-budget decisions are verified, not hoped for.
template <typename RegT>
class RegPool {
 public:
  RegPool(u8 first, u8 last) : next_(first), last_(last) {}
  RegT alloc() {
    SARIS_CHECK(next_ <= last_, "register pool exhausted");
    return RegT{next_++};
  }

 private:
  u8 next_;
  u8 last_;
};

using XRegPool = RegPool<XReg>;

/// FP registers available to kernels: f3..f31 (f0..f2 are the stream
/// registers; the baseline could use them but we keep variants symmetric).
inline constexpr u32 kFRegBudget = 29;

/// Integer registers available: x5..x31 (x0 zero, x1-x4 reserved ABI-style).
inline XRegPool make_xreg_pool() { return XRegPool(5, 31); }

/// Interleaved parallelization (paper §2.3): 2-D codes use the paper's 4x2
/// x/y interleave; 3-D codes use a 2x2x2 x/y/z interleave, which keeps the
/// per-core point counts balanced on the even interior extents of our 16^3
/// tiles (a 4-fold x interleave on a 14-point row gives a 4/4/3/3 split and
/// a built-in 14% runtime imbalance the paper's utilizations exclude).
inline constexpr u32 kInterleaveX = 4;
inline constexpr u32 kInterleaveY = 2;
/// Cores the partition splits a tile over (4x2 in 2-D, 2x2x2 in 3-D).
inline constexpr u32 kPartitionCores = 8;

struct CoreWork {
  u32 phase_x = 0;
  u32 phase_y = 0;
  u32 phase_z = 0;
  u32 step_x = 4;  ///< x interleave stride (points)
  u32 step_y = 2;  ///< y interleave stride (rows)
  u32 step_z = 1;  ///< z interleave stride (planes)
  u32 pts_row = 0;  ///< this core's points per row (x-count)
  u32 rows = 0;     ///< this core's rows per plane (y-count)
  u32 planes = 1;   ///< this core's z planes
  u64 points() const {
    return static_cast<u64>(pts_row) * rows * planes;
  }
};

CoreWork core_work(const StencilCode& sc, u32 core);

/// Inverse of the partition: the core that computes interior element
/// (x, y, z) (absolute tile coordinates, halo included). Used to attribute
/// a verification miss to the core whose program produced the element.
u32 owning_core(const StencilCode& sc, u32 x, u32 y, u32 z);

/// The x interleave stride of a code (identical across cores).
inline u32 interleave_x(const StencilCode& sc) {
  return sc.dims == 2 ? kInterleaveX : 2;
}

}  // namespace saris
