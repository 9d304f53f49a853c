// Kernel runner: the host-side driver of the two-stage run pipeline.
//
//   compile_kernel (runtime/compiled_kernel.hpp)  — pure lowering: codegen,
//     layout, SSR index vectors, overlap-DMA templates; no cluster, no data.
//   execute_kernel (below)                        — stateful execution:
//     stage a tile in TCDM, load the per-core programs, run the cluster
//     cycle loop with steady-state DMA overlapped, verify against the
//     golden reference, extract metrics.
//
// run_kernel / run_kernel_io compose the two, fetching the compile artifact
// through the process-wide PlanCache (runtime/plan_cache.hpp), so repeated
// runs of one (code, variant, options, shape) cell — a sweep matrix, a
// stepping example, a test suite — lower it once. Warm runs are
// bit-identical to cold ones: the artifact is immutable and compilation is
// deterministic.
#pragma once

#include "cluster/cluster.hpp"
#include "codegen/options.hpp"
#include "runtime/compiled_kernel.hpp"
#include "runtime/metrics.hpp"
#include "stencil/grid.hpp"
#include "stencil/stencil_def.hpp"

namespace saris {

class FaultPlan;

struct RunConfig {
  KernelVariant variant = KernelVariant::kSaris;
  CodegenOptions cg{};
  ClusterConfig cluster{};  ///< e.g. ideal_tcdm for the cost-model check
  bool overlap_dma = true;  ///< model steady-state double-buffered DMA
  bool verify = true;
  bool record_timeline = false;  ///< fill RunMetrics::fpu_timeline
  u64 seed = 1;
  /// Hang guard: raise SimError(kMaxCyclesExceeded) — with the code,
  /// variant, and elapsed cycle count in the message — if the kernel has
  /// not halted after this many cycles. Raise it for experiments that
  /// legitimately run longer than the default.
  Cycle max_cycles = 100'000'000;
  /// Per-job wall-clock watchdog: when > 0, the cycle loop raises
  /// SimError(kWallClockTimeout) once it has run for this many host
  /// seconds. Checked every few thousand cycles, so granularity is coarse;
  /// 0 (the default) disables it. This is the sweep harness's defense
  /// against one pathological cell eating the whole sweep's budget.
  double max_wall_seconds = 0.0;
  /// Fault-injection plan (fault/fault_plan.hpp), not owned; the run's DMA
  /// word traffic, cycle loop (stalls, TCDM bit flips), and verification
  /// consult it. Null — the default — is provably inert (bit-identity
  /// test-enforced).
  FaultPlan* faults = nullptr;
  /// Max relative error accepted vs the golden reference. Covers
  /// reassociation rounding, which is data-dependent: cancellation in the
  /// reordered sums of the widest (3-D, 27-point) codes reaches 5.8e-10
  /// over 400 seeds of the 20-cell matrix (j3d27pt/base at seed 12: 1.03e-10
  /// on an output of 6.7e-8), far below any real codegen bug (a single
  /// wrong tap gives >= 0.6).
  double tolerance = 1e-9;
};

/// User-supplied kernel data: input grids (inputs[0] = current time step)
/// and coefficients in; the computed tile comes back in `output`.
struct KernelIO {
  std::vector<Grid<double>> inputs;
  std::vector<double> coeffs;
  std::vector<Grid<double>> outputs;  ///< filled by the run (one grid)
};

/// Execute stage: stage `io` into `cluster`, load the artifact's programs,
/// run the cycle loop with overlapped steady-state DMA, verify, and extract
/// metrics. `cluster` must be at power-on state — freshly constructed or
/// re-armed (Cluster::rearm), which are bit-identical — and shaped like the
/// artifact (same core count and TCDM size); multi-step callers re-arm (or
/// construct) a cluster per step and reuse one CompiledKernel. Staging is
/// re-entrant: rearm + execute_kernel streams any number of kernels through
/// one cluster. When `golden` is non-null it is used as the reference
/// for verification instead of recomputing it from `io` (see
/// reference_for_seed for the memoized seeded-random path).
RunMetrics execute_kernel(const CompiledKernel& ck, Cluster& cluster,
                          const RunConfig& cfg, KernelIO& io,
                          const Grid<>* golden = nullptr);

// ---- pieces of the execute stage, shared with the multi-cluster System
// ---- path (system/system_runner.hpp), which stages G clusters, drives one
// ---- interleaved cycle loop, and then finishes each cluster separately.

/// Raise SimError(kBadConfig) unless `cluster` and `cfg` match the artifact
/// (core count, TCDM size, variant, codegen options) and `io` has the
/// code's input/coeff counts. A mismatch is a recoverable per-job error —
/// a sweep cell with a bad user config fails typed, not the whole process.
void check_artifact(const CompiledKernel& ck, Cluster& cluster,
                    const RunConfig& cfg, const KernelIO& io);

/// Stage `io` into the cluster's TCDM (inputs, zeroed output, per-core
/// coefficients and SSR index vectors) and load the per-core programs.
void stage_kernel(const CompiledKernel& ck, Cluster& cluster,
                  const KernelIO& io);

/// Flip one bit of a staged input word in the cluster's TCDM, addressed by
/// a FaultPlan kTcdmBitFlip payload (fault/fault_plan.hpp). Used by both
/// cycle loops (single-cluster below, System in system/system_runner.cpp).
void apply_tcdm_bitflip(const CompiledKernel& ck, Cluster& cluster,
                        u64 payload);

/// One sample of the per-cycle FPU-activity timeline: the number of cores
/// that issued a useful FPU op during the cluster's most recent step.
/// `last_useful` carries per-core state across calls (size num_cores,
/// zero-initialized).
u32 count_active_fpu(Cluster& cluster, std::vector<u64>& last_useful);

/// Finish a run on a halted, DMA-drained cluster: read back the output
/// tile into io.outputs, verify against `golden` (computed from `io` when
/// null and cfg.verify is set), and extract RunMetrics with `window` as the
/// compute window.
RunMetrics finish_kernel(const CompiledKernel& ck, Cluster& cluster,
                         const RunConfig& cfg, KernelIO& io,
                         const Grid<>* golden, Cycle t0, Cycle window);

/// Run one time iteration of `sc` over caller-provided data (examples use
/// this to step simulations); verification is against the golden reference
/// computed from the same data. Compiles through the global PlanCache.
RunMetrics run_kernel_io(const StencilCode& sc, const RunConfig& cfg,
                         KernelIO& io);

/// Run one time iteration of `sc` on a fresh cluster with seeded
/// pseudo-random data; raises SimError (kVerifyFailed, or kInjectedFault
/// when an injected bit flip is on record) on verification failure beyond
/// the tolerance. Compiles through the global PlanCache and reuses the
/// memoized golden reference for (sc, cfg.seed).
RunMetrics run_kernel(const StencilCode& sc, const RunConfig& cfg);

/// Convenience: run both variants and return {base, saris}.
std::pair<RunMetrics, RunMetrics> run_both(const StencilCode& sc,
                                           u64 seed = 1);

}  // namespace saris
