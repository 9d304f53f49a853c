// Host-side golden reference executor: one time iteration of a stencil code
// over a tile's interior. Simulated kernel outputs are verified against it
// (with a tolerance covering reassociation differences).
#pragma once

#include <memory>
#include <vector>

#include "stencil/grid.hpp"
#include "stencil/stencil_def.hpp"

namespace saris {

/// Compute out(interior) from `inputs` (inputs[0] is the current time step,
/// further entries per sc.n_inputs). Halo cells of `out` are left untouched.
void reference_step(const StencilCode& sc, const std::vector<Grid<>>& inputs,
                    const std::vector<double>& coeffs, Grid<>& out);

/// Point update at (x, y, z) — exposed for property tests.
double reference_point(const StencilCode& sc,
                       const std::vector<Grid<>>& inputs,
                       const std::vector<double>& coeffs, u32 x, u32 y, u32 z);

/// Max relative error over the interior between two grids. An element's
/// error is 0 for equal values and +inf for a NaN or infinite mismatch, so
/// no tolerance accepts one.
double max_rel_error(const StencilCode& sc, const Grid<>& a, const Grid<>& b);

/// First interior element (in max_rel_error's z -> y -> x scan order) whose
/// relative error exceeds `tolerance`. Drives the verification-miss
/// diagnostics: the element pins down the owning core and thus the program
/// to disassemble.
struct VerifyMiss {
  bool found = false;
  u32 x = 0, y = 0, z = 0;
  double got = 0.0;
  double want = 0.0;
  double rel_err = 0.0;
};
VerifyMiss first_miss(const StencilCode& sc, const Grid<>& got,
                      const Grid<>& want, double tolerance);

/// The inputs of a run seeded with `seed`: input grid i (of sc.n_inputs,
/// each a full tile) filled with fill_random(seed + i). run_kernel and
/// run_system_kernel stage them; reference_for_seed computes from them.
std::vector<Grid<>> seeded_inputs(const StencilCode& sc, u64 seed);

/// Golden reference for the seeded-random `run_kernel` input path
/// (seeded_inputs(sc, seed), default coefficients), memoized process-wide
/// per (code content, seed): a sweep that runs the same (code, seed) cell
/// under many configurations computes the reference once. Bit-identical to
/// calling reference_step on that data directly — both paths execute the
/// same deterministic double-precision code. Thread-safe; the returned grid
/// is shared and immutable.
///
/// `inputs`, when non-null, MUST be exactly seeded_inputs(sc, seed) — it
/// lets a caller that already built them (run_kernel stages the same data
/// into TCDM) avoid regenerating them on the miss path; it never changes
/// the result.
std::shared_ptr<const Grid<>> reference_for_seed(
    const StencilCode& sc, u64 seed,
    const std::vector<Grid<>>* inputs = nullptr);

/// Drop all memoized references (cold-start hook for benches and tests).
void clear_reference_memo();

}  // namespace saris
