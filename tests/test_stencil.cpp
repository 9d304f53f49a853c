// Unit tests: stencil descriptors (Table 1 invariants, parameterized over
// all ten codes), grids, tap generators, reference executor, tiling.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/sim_error.hpp"
#include "stencil/codes.hpp"
#include "stencil/grid.hpp"
#include "stencil/reference.hpp"
#include "stencil/tiling.hpp"

namespace saris {
namespace {

// ---- Table 1 invariants, one parameterized suite over all codes ----

struct Table1Row {
  const char* name;
  u32 dims, radius, loads, coeffs, flops;
};

class Table1 : public ::testing::TestWithParam<Table1Row> {};

TEST_P(Table1, MatchesPaper) {
  const Table1Row& row = GetParam();
  const StencilCode& sc = code_by_name(row.name);
  EXPECT_EQ(sc.dims, row.dims);
  EXPECT_EQ(sc.radius, row.radius);
  EXPECT_EQ(sc.loads_per_point(), row.loads);
  EXPECT_EQ(sc.n_coeffs, row.coeffs);
  EXPECT_EQ(sc.flops_per_point(), row.flops);
}

TEST_P(Table1, TileGeometry) {
  const StencilCode& sc = code_by_name(GetParam().name);
  if (sc.dims == 2) {
    EXPECT_EQ(sc.tile_nx, 64u);
    EXPECT_EQ(sc.tile_ny, 64u);
    EXPECT_EQ(sc.tile_nz, 1u);
  } else {
    EXPECT_EQ(sc.tile_nx, 16u);
    EXPECT_EQ(sc.tile_nz, 16u);
  }
  EXPECT_EQ(sc.interior_nx(), sc.tile_nx - 2 * sc.radius);
  EXPECT_EQ(sc.interior_points(),
            static_cast<u64>(sc.interior_nx()) * sc.interior_ny() *
                sc.interior_nz());
}

TEST_P(Table1, TapsStayWithinHalo) {
  const StencilCode& sc = code_by_name(GetParam().name);
  for (const Tap& t : sc.taps) {
    EXPECT_LE(static_cast<u32>(std::abs(t.dx)), sc.radius);
    EXPECT_LE(static_cast<u32>(std::abs(t.dy)), sc.radius);
    EXPECT_LE(static_cast<u32>(std::abs(t.dz)), sc.radius);
    if (sc.dims == 2) {
      EXPECT_EQ(t.dz, 0);
    }
    EXPECT_LT(t.array, sc.n_inputs);
  }
}

TEST_P(Table1, CoefficientIndicesInRange) {
  const StencilCode& sc = code_by_name(GetParam().name);
  for (const Tap& t : sc.taps) {
    if (t.coeff != kNoCoeff) {
      EXPECT_LT(t.coeff, sc.n_coeffs);
    }
  }
  EXPECT_EQ(sc.default_coeffs().size(), sc.n_coeffs);
}

TEST_P(Table1, DefaultCoefficientsAreBounded) {
  const StencilCode& sc = code_by_name(GetParam().name);
  double sum = 0.0;
  for (double c : sc.default_coeffs()) sum += std::fabs(c);
  EXPECT_LE(sum, 1.0) << "iterates must stay bounded";
}

INSTANTIATE_TEST_SUITE_P(
    AllCodes, Table1,
    ::testing::Values(Table1Row{"jacobi_2d", 2, 1, 5, 1, 5},
                      Table1Row{"j2d5pt", 2, 1, 5, 6, 10},
                      Table1Row{"box2d1r", 2, 1, 9, 9, 17},
                      Table1Row{"j2d9pt", 2, 2, 9, 10, 18},
                      Table1Row{"j2d9pt_gol", 2, 1, 9, 10, 18},
                      Table1Row{"star2d3r", 2, 3, 13, 13, 25},
                      Table1Row{"star3d2r", 3, 2, 13, 13, 25},
                      Table1Row{"ac_iso_cd", 3, 4, 26, 13, 38},
                      Table1Row{"box3d1r", 3, 1, 27, 27, 53},
                      Table1Row{"j3d27pt", 3, 1, 27, 28, 54}),
    [](const ::testing::TestParamInfo<Table1Row>& info) {
      return info.param.name;
    });

TEST(Codes, TenCodesSortedByFlops) {
  const auto& codes = all_codes();
  ASSERT_EQ(codes.size(), 10u);
  for (std::size_t i = 1; i < codes.size(); ++i) {
    EXPECT_LE(codes[i - 1].flops_per_point(), codes[i].flops_per_point());
  }
}

TEST(Codes, Star7pExample) {
  const StencilCode& sc = example_star7p();
  EXPECT_EQ(sc.loads_per_point(), 7u);
  EXPECT_EQ(sc.n_coeffs, 4u);
  EXPECT_EQ(sc.flops_per_point(), 10u);
}

TEST(Codes, UnknownNameRaisesBadConfig) {
  try {
    code_by_name("nope");
    FAIL() << "code_by_name did not throw";
  } catch (const SimError& e) {
    EXPECT_EQ(e.errc(), SimErrc::kBadConfig);
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown stencil code 'nope'"), std::string::npos)
        << what;
    for (const StencilCode& sc : all_codes()) {
      EXPECT_NE(what.find(sc.name), std::string::npos) << sc.name;
    }
  }
}

// ---- tap generators ----

TEST(Taps, StarCounts) {
  EXPECT_EQ(make_star_taps(2, 1, true).size(), 5u);
  EXPECT_EQ(make_star_taps(2, 3, true).size(), 13u);
  EXPECT_EQ(make_star_taps(3, 1, true).size(), 7u);
  EXPECT_EQ(make_star_taps(3, 4, false).size(), 25u);
}

TEST(Taps, BoxCounts) {
  EXPECT_EQ(make_box_taps(2, 1, true).size(), 9u);
  EXPECT_EQ(make_box_taps(3, 1, true).size(), 27u);
  EXPECT_EQ(make_box_taps(2, 2, true).size(), 25u);
}

TEST(Taps, StarCenterFirstAndUnique) {
  auto taps = make_star_taps(3, 2, true);
  EXPECT_EQ(taps[0].dx, 0);
  EXPECT_EQ(taps[0].dy, 0);
  EXPECT_EQ(taps[0].dz, 0);
  for (std::size_t i = 0; i < taps.size(); ++i) {
    for (std::size_t j = i + 1; j < taps.size(); ++j) {
      EXPECT_FALSE(taps[i].dx == taps[j].dx && taps[i].dy == taps[j].dy &&
                   taps[i].dz == taps[j].dz)
          << "duplicate tap";
    }
  }
}

TEST(Taps, CoefficientsSequentialWhenRequested) {
  auto taps = make_box_taps(2, 1, true);
  for (std::size_t i = 0; i < taps.size(); ++i) {
    EXPECT_EQ(taps[i].coeff, i);
  }
  auto bare = make_box_taps(2, 1, false);
  for (const Tap& t : bare) EXPECT_EQ(t.coeff, kNoCoeff);
}

// ---- grid ----

TEST(Grid, IndexingRowMajor) {
  Grid<> g(4, 3, 2);
  EXPECT_EQ(g.index(0, 0, 0), 0u);
  EXPECT_EQ(g.index(1, 0, 0), 1u);
  EXPECT_EQ(g.index(0, 1, 0), 4u);
  EXPECT_EQ(g.index(0, 0, 1), 12u);
  EXPECT_EQ(g.size(), 24u);
  EXPECT_EQ(g.bytes(), 24u * 8);
}

TEST(Grid, FillRandomDeterministic) {
  Grid<> a(8, 8), b(8, 8);
  a.fill_random(7);
  b.fill_random(7);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]);
  }
  Grid<> c(8, 8);
  c.fill_random(8);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    any_diff |= a.data()[i] != c.data()[i];
  }
  EXPECT_TRUE(any_diff);
}

TEST(Grid, AdjacentSeedsAreNotShiftedCopies) {
  // Regression: the stream origin used to be an affine map of the seed with
  // the same odd constant used as the per-element increment, so
  // fill_random(s + 1) produced exactly fill_random(s) shifted by one
  // element — and run_kernel seeds input array i with cfg.seed + i, which
  // made all "independent" input grids shifted copies of one another.
  Grid<> a(16, 16), b(16, 16);
  a.fill_random(7);
  b.fill_random(8);
  // Values carry 53 random bits: any exact match between the two streams at
  // a small relative shift indicates seed aliasing, not coincidence.
  const i64 n = static_cast<i64>(a.size());
  for (i64 shift = -4; shift <= 4; ++shift) {
    u32 matches = 0;
    for (i64 i = 0; i < n; ++i) {
      i64 j = i + shift;
      if (j < 0 || j >= n) continue;
      if (a.data()[j] == b.data()[i]) ++matches;
    }
    EXPECT_EQ(matches, 0u) << "streams alias at shift " << shift;
  }
}

TEST(Grid, FillRandomRespectsBounds) {
  Grid<> g(16, 16);
  g.fill_random(3, -0.5, 0.5);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_GE(g.data()[i], -0.5);
    EXPECT_LE(g.data()[i], 0.5);
  }
}

TEST(GridDeath, OutOfBoundsAborts) {
  Grid<> g(4, 4);
  EXPECT_DEATH(g.at(4, 0), "out of");
}

// ---- reference executor ----

TEST(Reference, JacobiPointByHand) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  std::vector<Grid<>> in;
  in.emplace_back(sc.tile_nx, sc.tile_ny);
  in[0].fill(0.0);
  in[0].at(5, 5) = 1.0;
  in[0].at(4, 5) = 2.0;
  in[0].at(6, 5) = 3.0;
  in[0].at(5, 4) = 4.0;
  in[0].at(5, 6) = 5.0;
  double v = reference_point(sc, in, {0.2}, 5, 5, 0);
  EXPECT_DOUBLE_EQ(v, 0.2 * (1 + 2 + 3 + 4 + 5));
}

TEST(Reference, LinearityInInputs) {
  // All our codes are linear in the grid values (coefficients fixed):
  // doubling the input doubles the output except for constant terms.
  const StencilCode& sc = code_by_name("star2d3r");  // no constant term
  std::vector<Grid<>> in1, in2;
  in1.emplace_back(sc.tile_nx, sc.tile_ny);
  in1[0].fill_random(5);
  in2.emplace_back(sc.tile_nx, sc.tile_ny);
  for (std::size_t i = 0; i < in1[0].size(); ++i) {
    in2[0].data()[i] = 2.0 * in1[0].data()[i];
  }
  auto coeffs = sc.default_coeffs();
  double a = reference_point(sc, in1, coeffs, 10, 10, 0);
  double b = reference_point(sc, in2, coeffs, 10, 10, 0);
  EXPECT_NEAR(b, 2.0 * a, 1e-12 * std::max(1.0, std::fabs(b)));
}

TEST(Reference, StepLeavesHaloUntouched) {
  const StencilCode& sc = code_by_name("box2d1r");
  std::vector<Grid<>> in;
  in.emplace_back(sc.tile_nx, sc.tile_ny);
  in[0].fill_random(1);
  Grid<> out(sc.tile_nx, sc.tile_ny);
  out.fill(-7.0);
  reference_step(sc, in, sc.default_coeffs(), out);
  EXPECT_DOUBLE_EQ(out.at(0, 0), -7.0);
  EXPECT_DOUBLE_EQ(out.at(sc.tile_nx - 1, sc.tile_ny - 1), -7.0);
  EXPECT_NE(out.at(1, 1), -7.0);
}

TEST(Reference, AcIsoUsesPrevArray) {
  const StencilCode& sc = code_by_name("ac_iso_cd");
  std::vector<Grid<>> in;
  in.emplace_back(sc.tile_nx, sc.tile_ny, sc.tile_nz);
  in.emplace_back(sc.tile_nx, sc.tile_ny, sc.tile_nz);
  in[0].fill(0.0);
  in[1].fill(0.0);
  in[1].at(8, 8, 8) = 3.0;  // only the prev-step array is non-zero
  double v = reference_point(sc, in, sc.default_coeffs(), 8, 8, 8);
  EXPECT_DOUBLE_EQ(v, -3.0);  // u_next = lap(0) - u_prev
}

TEST(Reference, MaxRelErrorDetectsMismatch) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  Grid<> a(sc.tile_nx, sc.tile_ny), b(sc.tile_nx, sc.tile_ny);
  a.fill(1.0);
  b.fill(1.0);
  EXPECT_DOUBLE_EQ(max_rel_error(sc, a, b), 0.0);
  b.at(10, 10) = 1.1;
  EXPECT_NEAR(max_rel_error(sc, a, b), 0.1 / 1.1, 1e-12);
  // Halo mismatches are ignored.
  b.at(10, 10) = 1.0;
  b.at(0, 0) = 99.0;
  EXPECT_DOUBLE_EQ(max_rel_error(sc, a, b), 0.0);
  // A NaN or infinite output fails any tolerance and first_miss names it:
  // one interior element (10, 10), then every interior element, where the
  // first in scan order is (r, r).
  const double inf = std::numeric_limits<double>::infinity();
  const u32 r = sc.radius;
  for (double bad : {std::nan(""), inf, -inf}) {
    for (bool everywhere : {false, true}) {
      Grid<> got(sc.tile_nx, sc.tile_ny);
      got.fill(1.0);
      for (u32 y = r; y < sc.tile_ny - r; ++y) {
        for (u32 x = r; x < sc.tile_nx - r; ++x) {
          if (everywhere || (x == 10 && y == 10)) got.at(x, y) = bad;
        }
      }
      EXPECT_EQ(max_rel_error(sc, got, a), inf) << bad << everywhere;
      VerifyMiss m = first_miss(sc, got, a, 1e-6);
      EXPECT_TRUE(m.found) << bad << everywhere;
      EXPECT_EQ(m.x, everywhere ? r : 10u);
      EXPECT_EQ(m.y, everywhere ? r : 10u);
      EXPECT_EQ(m.rel_err, inf);
    }
  }
  // Equal infinities are no error.
  Grid<> c(sc.tile_nx, sc.tile_ny);
  c.fill(inf);
  EXPECT_DOUBLE_EQ(max_rel_error(sc, c, c), 0.0);
}

// ---- tiling / traffic ----

TEST(Tiling, TrafficJacobi2d) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  TileTraffic t = tile_traffic(sc);
  EXPECT_EQ(t.bytes_in, 64u * 64 * 8);
  EXPECT_EQ(t.bytes_out, 62u * 62 * 8);
  EXPECT_EQ(t.total(), t.bytes_in + t.bytes_out);
}

TEST(Tiling, TrafficAcIsoCountsExtraArrays) {
  const StencilCode& sc = code_by_name("ac_iso_cd");
  TileTraffic t = tile_traffic(sc);
  u64 interior = 8ull * 8 * 8 * 8;  // 8^3 doubles
  // halo'd u + interior-sized u_prev + interior-sized impulse.
  EXPECT_EQ(t.bytes_in, 16ull * 16 * 16 * 8 + 2 * interior);
  EXPECT_EQ(t.bytes_out, interior);
}

TEST(Tiling, ScaleoutTileCounts) {
  // 2-D: 16384 / 62 interior -> 265 tiles per axis.
  const StencilCode& j = code_by_name("jacobi_2d");
  EXPECT_EQ(scaleout_tiles(j), 265ull * 265);
  EXPECT_EQ(scaleout_points(j), 16384ull * 16384);
  // 3-D radius 1: 512 / 14 -> 37 per axis.
  const StencilCode& b = code_by_name("box3d1r");
  EXPECT_EQ(scaleout_tiles(b), 37ull * 37 * 37);
  EXPECT_EQ(scaleout_points(b), 512ull * 512 * 512);
}

}  // namespace
}  // namespace saris
