#include "stencil/reference.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/log.hpp"

namespace saris {

double reference_point(const StencilCode& sc,
                       const std::vector<Grid<>>& inputs,
                       const std::vector<double>& coeffs, u32 x, u32 y,
                       u32 z) {
  auto tap_val = [&](const Tap& t) {
    const Grid<>& g = inputs[t.array];
    return g.at(static_cast<u32>(static_cast<i32>(x) + t.dx),
                static_cast<u32>(static_cast<i32>(y) + t.dy),
                static_cast<u32>(static_cast<i32>(z) + t.dz));
  };

  switch (sc.sched) {
    case ScheduleClass::kFmaChain: {
      double acc = sc.const_term ? coeffs[sc.n_coeffs - 1] : 0.0;
      bool first = !sc.const_term;
      for (const Tap& t : sc.taps) {
        SARIS_CHECK(t.coeff != kNoCoeff, "fma-chain tap without coefficient");
        if (first) {
          acc = coeffs[t.coeff] * tap_val(t);
          first = false;
        } else {
          acc += coeffs[t.coeff] * tap_val(t);
        }
      }
      return acc;
    }
    case ScheduleClass::kSumScale: {
      double sum = 0.0;
      for (const Tap& t : sc.taps) sum += tap_val(t);
      return coeffs[0] * sum;
    }
    case ScheduleClass::kAxisPairs:
    case ScheduleClass::kAxisPairsPrev: {
      // taps[0] = center; then (minus, plus) pairs sharing a coefficient;
      // for kAxisPairsPrev the final tap is the subtracted prev-step load.
      u32 n = sc.loads_per_point();
      u32 pair_taps = (sc.sched == ScheduleClass::kAxisPairsPrev) ? n - 2
                                                                  : n - 1;
      double acc = coeffs[sc.taps[0].coeff] * tap_val(sc.taps[0]);
      for (u32 i = 1; i + 1 <= pair_taps; i += 2) {
        const Tap& lo = sc.taps[i];
        const Tap& hi = sc.taps[i + 1];
        SARIS_CHECK(lo.coeff == hi.coeff && lo.coeff != kNoCoeff,
                    "axis pair must share a coefficient");
        acc += coeffs[lo.coeff] * (tap_val(lo) + tap_val(hi));
      }
      if (sc.sched == ScheduleClass::kAxisPairsPrev) {
        acc -= tap_val(sc.taps[n - 1]);
      }
      return acc;
    }
  }
  SARIS_CHECK(false, "bad schedule class");
}

void reference_step(const StencilCode& sc, const std::vector<Grid<>>& inputs,
                    const std::vector<double>& coeffs, Grid<>& out) {
  SARIS_CHECK(inputs.size() >= sc.n_inputs, "missing input arrays");
  SARIS_CHECK(coeffs.size() == sc.n_coeffs, "coefficient count mismatch");
  u32 r = sc.radius;
  u32 zlo = (sc.dims == 3) ? r : 0;
  u32 zhi = (sc.dims == 3) ? sc.tile_nz - r : 1;
  for (u32 z = zlo; z < zhi; ++z) {
    for (u32 y = r; y < sc.tile_ny - r; ++y) {
      for (u32 x = r; x < sc.tile_nx - r; ++x) {
        out.at(x, y, z) = reference_point(sc, inputs, coeffs, x, y, z);
      }
    }
  }
}

namespace {

/// The one element error: relative to the larger magnitude, 0 for equal
/// values, and +inf when it is not a number (a NaN output, or an infinite
/// one over a finite reference, whose ratio is inf/inf).
double element_error(double got, double want) {
  if (got == want) return 0.0;
  double denom = std::max({std::fabs(got), std::fabs(want), 1e-30});
  double rel = std::fabs(got - want) / denom;
  return std::isnan(rel) ? std::numeric_limits<double>::infinity() : rel;
}

/// Visit every interior element's error in z -> y -> x order until `visit`
/// returns true.
template <typename Visit>
void scan_interior(const StencilCode& sc, const Grid<>& got,
                   const Grid<>& want, Visit&& visit) {
  u32 r = sc.radius;
  u32 zlo = (sc.dims == 3) ? r : 0;
  u32 zhi = (sc.dims == 3) ? sc.tile_nz - r : 1;
  for (u32 z = zlo; z < zhi; ++z) {
    for (u32 y = r; y < sc.tile_ny - r; ++y) {
      for (u32 x = r; x < sc.tile_nx - r; ++x) {
        double e = element_error(got.at(x, y, z), want.at(x, y, z));
        if (visit(x, y, z, e)) return;
      }
    }
  }
}

}  // namespace

double max_rel_error(const StencilCode& sc, const Grid<>& a, const Grid<>& b) {
  double worst = 0.0;
  scan_interior(sc, a, b, [&](u32, u32, u32, double e) {
    worst = std::max(worst, e);
    return false;
  });
  return worst;
}

VerifyMiss first_miss(const StencilCode& sc, const Grid<>& got,
                      const Grid<>& want, double tolerance) {
  VerifyMiss m;
  scan_interior(sc, got, want, [&](u32 x, u32 y, u32 z, double e) {
    if (e > tolerance) {
      m = VerifyMiss{true, x, y, z, got.at(x, y, z), want.at(x, y, z), e};
    }
    return m.found;
  });
  return m;
}

namespace {

struct ReferenceMemo {
  std::mutex mu;
  std::unordered_map<std::string, std::shared_ptr<const Grid<>>> map;
};

ReferenceMemo& reference_memo() {
  static ReferenceMemo memo;
  return memo;
}

}  // namespace

std::vector<Grid<>> seeded_inputs(const StencilCode& sc, u64 seed) {
  std::vector<Grid<>> inputs;
  for (u32 i = 0; i < sc.n_inputs; ++i) {
    inputs.emplace_back(sc.tile_nx, sc.tile_ny, sc.tile_nz);
    inputs.back().fill_random(seed + i);
  }
  return inputs;
}

std::shared_ptr<const Grid<>> reference_for_seed(
    const StencilCode& sc, u64 seed, const std::vector<Grid<>>* inputs) {
  ReferenceMemo& memo = reference_memo();
  const std::string key = code_signature(sc) + "|s" + std::to_string(seed);
  {
    std::lock_guard<std::mutex> lk(memo.mu);
    auto it = memo.map.find(key);
    if (it != memo.map.end()) return it->second;
  }
  // Compute outside the lock: a concurrent duplicate computation yields a
  // bit-identical grid (deterministic fill + reference), so first-insert-
  // wins is safe and independent (code, seed) cells never serialize.
  std::vector<Grid<>> own;
  if (inputs == nullptr) {
    own = seeded_inputs(sc, seed);
    inputs = &own;
  }
  std::vector<double> coeffs = sc.default_coeffs();
  auto golden = std::make_shared<Grid<>>(sc.tile_nx, sc.tile_ny, sc.tile_nz);
  golden->fill(0.0);
  reference_step(sc, *inputs, coeffs, *golden);
  std::lock_guard<std::mutex> lk(memo.mu);
  return memo.map.emplace(key, std::move(golden)).first->second;
}

void clear_reference_memo() {
  ReferenceMemo& memo = reference_memo();
  std::lock_guard<std::mutex> lk(memo.mu);
  memo.map.clear();
}

}  // namespace saris
