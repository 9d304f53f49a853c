// Fuzz-style property tests: deterministic pseudo-random stencil shapes
// driven through the ENTIRE pipeline (schedule -> index arrays -> codegen ->
// cycle simulation -> verification against the reference executor), in both
// variants. SARIS claims to handle "any stencil shape" (§2.1); this suite
// holds the implementation to that.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/splitmix.hpp"
#include "runtime/kernel_runner.hpp"
#include "stencil/stencil_def.hpp"

namespace saris {
namespace {

/// Build a random stencil: random dims/radius, a random set of unique taps
/// within the halo (center always included), fma-chain or sum-scale.
StencilCode random_code(u64 seed) {
  u64 s = seed;
  StencilCode sc;
  sc.dims = (splitmix64(s) % 2) ? 2 : 3;
  if (sc.dims == 2) {
    sc.radius = 1 + splitmix64(s) % 3;
    sc.tile_nx = sc.tile_ny = 64;
    sc.tile_nz = 1;
  } else {
    sc.radius = 1 + splitmix64(s) % 2;
    sc.tile_nx = sc.tile_ny = sc.tile_nz = 16;
  }
  sc.name = "fuzz_" + std::to_string(seed);

  i32 r = static_cast<i32>(sc.radius);
  // Clamp to the number of distinct offsets inside the halo (a radius-1
  // 2-D stencil only has 9) or the tap-uniqueness loop cannot terminate.
  u32 max_taps = 1;
  for (u32 d = 0; d < sc.dims; ++d) max_taps *= 2 * sc.radius + 1;
  u32 want = std::min(4 + static_cast<u32>(splitmix64(s) % 14), max_taps);
  std::set<std::tuple<i32, i32, i32>> offs;
  offs.insert({0, 0, 0});
  while (offs.size() < want) {
    i32 dx = static_cast<i32>(splitmix64(s) % (2 * sc.radius + 1)) - r;
    i32 dy = static_cast<i32>(splitmix64(s) % (2 * sc.radius + 1)) - r;
    i32 dz = sc.dims == 3
                 ? static_cast<i32>(splitmix64(s) % (2 * sc.radius + 1)) - r
                 : 0;
    offs.insert({dx, dy, dz});
  }

  bool sum_scale = (splitmix64(s) % 4) == 0;
  sc.sched = sum_scale ? ScheduleClass::kSumScale : ScheduleClass::kFmaChain;
  sc.const_term = !sum_scale && (splitmix64(s) % 2) == 0;
  u32 coeff = 0;
  for (const auto& [dx, dy, dz] : offs) {
    Tap t;
    t.dx = dx;
    t.dy = dy;
    t.dz = dz;
    t.coeff = sum_scale ? kNoCoeff : coeff++;
    sc.taps.push_back(t);
  }
  sc.n_coeffs = sum_scale ? 1 : coeff + (sc.const_term ? 1 : 0);
  return sc;
}

class Fuzz : public ::testing::TestWithParam<u64> {};

TEST_P(Fuzz, BothVariantsVerify) {
  StencilCode sc = random_code(GetParam());
  for (KernelVariant v : {KernelVariant::kBase, KernelVariant::kSaris}) {
    RunConfig cfg;
    cfg.variant = v;
    cfg.seed = GetParam() * 7 + 1;
    RunMetrics m = run_kernel(sc, cfg);  // aborts on mismatch
    EXPECT_LE(m.max_rel_err, cfg.tolerance)
        << sc.name << "/" << variant_name(v);
    EXPECT_EQ(m.flops,
              static_cast<u64>(sc.flops_per_point()) * sc.interior_points())
        << sc.name;
  }
}

TEST_P(Fuzz, SarisWinsOnArbitraryShapes) {
  StencilCode sc = random_code(GetParam());
  auto [base, saris_m] = run_both(sc, GetParam() + 13);
  EXPECT_GT(static_cast<double>(base.cycles) / saris_m.cycles, 1.3)
      << sc.name << " with " << sc.loads_per_point() << " taps";
}

INSTANTIATE_TEST_SUITE_P(Shapes, Fuzz,
                         ::testing::Range<u64>(1, 17),
                         [](const ::testing::TestParamInfo<u64>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace saris
