#include "stencil/codes.hpp"

#include "common/sim_error.hpp"

namespace saris {

namespace {

StencilCode base_2d(const std::string& name, u32 radius) {
  StencilCode sc;
  sc.name = name;
  sc.dims = 2;
  sc.radius = radius;
  sc.tile_nx = 64;
  sc.tile_ny = 64;
  sc.tile_nz = 1;
  return sc;
}

StencilCode base_3d(const std::string& name, u32 radius) {
  StencilCode sc;
  sc.name = name;
  sc.dims = 3;
  sc.radius = radius;
  sc.tile_nx = 16;
  sc.tile_ny = 16;
  sc.tile_nz = 16;
  return sc;
}

/// jacobi_2d (Polybench): 5-point star, single scaling coefficient.
/// Table 1: 2D, rad 1, 5 loads, 1 coeff, 5 FLOPs.
StencilCode make_jacobi_2d() {
  StencilCode sc = base_2d("jacobi_2d", 1);
  sc.sched = ScheduleClass::kSumScale;
  sc.taps = make_star_taps(2, 1, /*with_coeffs=*/false);
  sc.n_coeffs = 1;
  return sc;
}

/// j2d5pt (AN5D): 5-point star, per-tap coefficients + constant term.
/// Table 1: 2D, rad 1, 5 loads, 6 coeffs, 10 FLOPs.
StencilCode make_j2d5pt() {
  StencilCode sc = base_2d("j2d5pt", 1);
  sc.sched = ScheduleClass::kFmaChain;
  sc.const_term = true;
  sc.taps = make_star_taps(2, 1, /*with_coeffs=*/true);
  sc.n_coeffs = sc.loads_per_point() + 1;
  return sc;
}

/// box2d1r (AN5D): 3x3 box.
/// Table 1: 2D, rad 1, 9 loads, 9 coeffs, 17 FLOPs.
StencilCode make_box2d1r() {
  StencilCode sc = base_2d("box2d1r", 1);
  sc.sched = ScheduleClass::kFmaChain;
  sc.taps = make_box_taps(2, 1, /*with_coeffs=*/true);
  sc.n_coeffs = sc.loads_per_point();
  return sc;
}

/// j2d9pt (AN5D): radius-2 star (9 points) + constant term.
/// Table 1: 2D, rad 2, 9 loads, 10 coeffs, 18 FLOPs.
StencilCode make_j2d9pt() {
  StencilCode sc = base_2d("j2d9pt", 2);
  sc.sched = ScheduleClass::kFmaChain;
  sc.const_term = true;
  sc.taps = make_star_taps(2, 2, /*with_coeffs=*/true);
  sc.n_coeffs = sc.loads_per_point() + 1;
  return sc;
}

/// j2d9pt_gol (AN5D): 3x3 box ("game of life" shape) + constant term.
/// Table 1: 2D, rad 1, 9 loads, 10 coeffs, 18 FLOPs.
StencilCode make_j2d9pt_gol() {
  StencilCode sc = base_2d("j2d9pt_gol", 1);
  sc.sched = ScheduleClass::kFmaChain;
  sc.const_term = true;
  sc.taps = make_box_taps(2, 1, /*with_coeffs=*/true);
  sc.n_coeffs = sc.loads_per_point() + 1;
  return sc;
}

/// star2d3r (AN5D): radius-3 star (13 points).
/// Table 1: 2D, rad 3, 13 loads, 13 coeffs, 25 FLOPs.
StencilCode make_star2d3r() {
  StencilCode sc = base_2d("star2d3r", 3);
  sc.sched = ScheduleClass::kFmaChain;
  sc.taps = make_star_taps(2, 3, /*with_coeffs=*/true);
  sc.n_coeffs = sc.loads_per_point();
  return sc;
}

/// star3d2r (AN5D): 3-D radius-2 star (13 points).
/// Table 1: 3D, rad 2, 13 loads, 13 coeffs, 25 FLOPs.
StencilCode make_star3d2r() {
  StencilCode sc = base_3d("star3d2r", 2);
  sc.sched = ScheduleClass::kFmaChain;
  sc.taps = make_star_taps(3, 2, /*with_coeffs=*/true);
  sc.n_coeffs = sc.loads_per_point();
  return sc;
}

/// ac_iso_cd (Jacquelin et al.): acoustic isotropic constant-density wave
/// propagation; 25-point radius-4 star plus previous-time-step array, with
/// symmetric per-(axis, radius) coefficients folded so one time iteration is
/// u_next = c_ctr*u + sum_axis sum_r c_{a,r}*(u[-r]+u[+r]) - u_prev.
/// Table 1: 3D, rad 4, 26 loads, 13 coeffs, 38 FLOPs.
StencilCode make_ac_iso_cd() {
  StencilCode sc = base_3d("ac_iso_cd", 4);
  sc.sched = ScheduleClass::kAxisPairsPrev;
  sc.n_inputs = 2;
  sc.n_extra_traffic_arrays = 1;  // time-dependent impulse (traffic only)
  sc.taps = make_star_taps(3, 4, /*with_coeffs=*/false);
  // Coefficients: index 0 = center, then (axis, r) pairs.
  sc.taps[0].coeff = 0;
  for (u32 axis = 0; axis < 3; ++axis) {
    for (u32 r = 1; r <= 4; ++r) {
      u32 pair_first = 1 + 2 * (axis * 4 + (r - 1));
      u32 coeff = 1 + axis * 4 + (r - 1);
      sc.taps[pair_first].coeff = coeff;
      sc.taps[pair_first + 1].coeff = coeff;
    }
  }
  // Previous-time-step load (array 1, center, subtracted).
  Tap prev;
  prev.array = 1;
  prev.coeff = kNoCoeff;
  sc.taps.push_back(prev);
  sc.n_coeffs = 13;
  return sc;
}

/// box3d1r (AN5D): 3x3x3 box.
/// Table 1: 3D, rad 1, 27 loads, 27 coeffs, 53 FLOPs.
StencilCode make_box3d1r() {
  StencilCode sc = base_3d("box3d1r", 1);
  sc.sched = ScheduleClass::kFmaChain;
  sc.taps = make_box_taps(3, 1, /*with_coeffs=*/true);
  sc.n_coeffs = sc.loads_per_point();
  return sc;
}

/// j3d27pt (AN5D): 3x3x3 box + constant term.
/// Table 1: 3D, rad 1, 27 loads, 28 coeffs, 54 FLOPs.
StencilCode make_j3d27pt() {
  StencilCode sc = base_3d("j3d27pt", 1);
  sc.sched = ScheduleClass::kFmaChain;
  sc.const_term = true;
  sc.taps = make_box_taps(3, 1, /*with_coeffs=*/true);
  sc.n_coeffs = sc.loads_per_point() + 1;
  return sc;
}

}  // namespace

const std::vector<StencilCode>& all_codes() {
  static const std::vector<StencilCode> codes = {
      make_jacobi_2d(), make_j2d5pt(),    make_box2d1r(), make_j2d9pt(),
      make_j2d9pt_gol(), make_star2d3r(), make_star3d2r(), make_ac_iso_cd(),
      make_box3d1r(),   make_j3d27pt(),
  };
  return codes;
}

const StencilCode& code_by_name(const std::string& name) {
  std::string valid;
  for (const StencilCode& sc : all_codes()) {
    if (sc.name == name) return sc;
    valid += (valid.empty() ? "" : ", ") + sc.name;
  }
  SARIS_RAISE(SimErrc::kBadConfig, 0,
              "unknown stencil code '" << name << "'; valid codes: " << valid);
}

const StencilCode& example_star7p() {
  static const StencilCode sc = [] {
    StencilCode s;
    s.name = "star7p";
    s.dims = 3;
    s.radius = 1;
    s.tile_nx = s.tile_ny = s.tile_nz = 16;
    s.sched = ScheduleClass::kAxisPairs;
    s.taps = make_star_taps(3, 1, /*with_coeffs=*/false);
    // Coefficients: c0 (center), cx, cy, cz.
    s.taps[0].coeff = 0;
    for (u32 axis = 0; axis < 3; ++axis) {
      s.taps[1 + 2 * axis].coeff = 1 + axis;
      s.taps[2 + 2 * axis].coeff = 1 + axis;
    }
    s.n_coeffs = 4;
    return s;
  }();
  return sc;
}

}  // namespace saris
