// Kernel runner: the host-side driver of the two-stage run pipeline.
//
//   compile_kernel (runtime/compiled_kernel.hpp)  — pure lowering: codegen,
//     layout, SSR index vectors, overlap-DMA templates; no cluster, no data.
//   execute_kernel (below)                        — stateful execution:
//     stage a tile in TCDM, load the per-core programs, run the cluster
//     cycle loop with steady-state DMA overlapped, verify against the
//     golden reference, extract metrics.
//
// Both this single-cluster loop and the multi-cluster System loop
// (system/system_runner.hpp) drive each cluster through one KernelRun,
// which owns the per-cycle run semantics: fault hooks, the FPU-activity
// timeline, the compute-window close and the wall-clock watchdog.
//
// run_kernel / run_kernel_io compose the two, fetching the compile artifact
// through the process-wide PlanCache (runtime/plan_cache.hpp), so repeated
// runs of one (code, variant, options, shape) cell — a sweep matrix, a
// stepping example, a test suite — lower it once. Warm runs are
// bit-identical to cold ones: the artifact is immutable and compilation is
// deterministic.
#pragma once

#include <chrono>
#include <vector>

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
  ClusterConfig cluster{};  ///< cores, TCDM and main-memory sizes
  bool overlap_dma = true;  ///< model steady-state double-buffered DMA
  bool record_timeline = false;  ///< fill RunMetrics::fpu_timeline
  u64 seed = 1;
  /// Hang guard: raise SimError(kMaxCyclesExceeded) — with the code,
  /// variant, and elapsed cycle count in the message — if the kernel has
  /// not halted and drained its DMA after this many cycles. Raise it for
  /// experiments that legitimately run longer than the default. A system
  /// run budgets max_cycles × tiles for the whole run instead.
  Cycle max_cycles = 100'000'000;
  /// Per-tile wall-clock watchdog: when > 0, the run raises
  /// SimError(kWallClockTimeout) once it has spent this many host seconds
  /// between staging and the DMA drain. Checked every 4096 cycles, so
  /// granularity is coarse; 0 (the default) disables it. This is the sweep
  /// harness's defense against one pathological cell eating the whole
  /// sweep's budget. In a system run every tile has this budget, and a
  /// timeout is a run-level error like any other.
  double max_wall_seconds = 0.0;
  /// Fault-injection plan (fault/fault_plan.hpp), not owned; the run's DMA
  /// word traffic, fault hooks (stalls, TCDM bit flips), and verification
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

/// One kernel on one power-on cluster: the per-cluster run that both cycle
/// loops step (execute_kernel below and the System runner's after_tick).
/// The constructor checks the artifact against `cluster`, `cfg` and `io`
/// (kBadConfig), stages `io`, queues the overlap DMA at `arena_base` in
/// main memory, binds cfg.faults (null detaches) with `tick_offset` as the
/// plan cycle of the cluster's cycle 0, and applies the first cycle
/// boundary's fault hooks. The caller, which owns the cycle budget, then
/// alternates cluster.step() and after_step() until done() and calls
/// finish() once. after_step() samples the FPU-activity timeline (when
/// cfg.record_timeline), closes the compute window once every core has
/// halted, and until the DMA has drained checks cfg.max_wall_seconds every
/// 4096 cycles and applies the next boundary's fault hooks.
class KernelRun {
 public:
  KernelRun(const CompiledKernel& ck, Cluster& cluster, const RunConfig& cfg,
            KernelIO& io, u64 arena_base = 0, Cycle tick_offset = 0);

  /// Book the step the cluster just took and run the next cycle boundary.
  void after_step() {
    if (!halted_) {
      if (cfg_.record_timeline) sample_timeline();
      if (cluster_.all_halted()) close_window();
    }
    if (halted_ && cluster_.dma().idle()) {
      done_ = true;
    } else if (watched_) {
      boundary();
    }
  }

  /// Every core has halted: the compute window is closed.
  bool halted() const { return halted_; }
  /// Halted and the DMA drained: the tile is complete; call finish().
  bool done() const { return done_; }

  /// Read back the output tile into io.outputs, verify it against `golden`
  /// (computed from io when null), and extract RunMetrics. Raises
  /// kVerifyFailed, or kInjectedFault when a TCDM bit flip of cfg.faults
  /// hit this cluster, on a miss beyond cfg.tolerance.
  RunMetrics finish(const Grid<>* golden = nullptr);

 private:
  void sample_timeline();
  void close_window();
  void boundary();
  void apply_fault_hooks();

  const CompiledKernel& ck_;
  Cluster& cluster_;
  const RunConfig cfg_;
  KernelIO& io_;
  const Cycle tick_offset_;
  /// Fault plan or watchdog armed: after_step runs boundary().
  const bool watched_;
  bool halted_ = false;
  bool done_ = false;
  Cycle window_ = 0;
  std::vector<u32> timeline_;
  std::vector<u64> last_useful_;  ///< per-core fpu_useful_ops at last sample
  std::chrono::steady_clock::time_point wall0_;
  double step_wall_ = 0.0;
};

/// Execute stage: run one KernelRun to completion, raising
/// SimError(kMaxCyclesExceeded) if it is not done (halted and DMA drained)
/// within cfg.max_cycles cycles. `cluster` must be freshly constructed;
/// multi-step callers construct a cluster per step and reuse one
/// CompiledKernel. When `golden` is non-null it is used as the reference
/// for verification instead of recomputing it from `io` (see
/// reference_for_seed for the memoized seeded-random path).
RunMetrics execute_kernel(const CompiledKernel& ck, Cluster& cluster,
                          const RunConfig& cfg, KernelIO& io,
                          const Grid<>* golden = nullptr);

/// Stage `io` into the cluster's TCDM (inputs, zeroed output, per-core
/// coefficients) and then stage_programs, with no checks: KernelRun's
/// constructor checks first. Exported for tests that stage a hand-compiled
/// cell on a cluster of their own shape.
void stage_kernel(const CompiledKernel& ck, Cluster& cluster,
                  const KernelIO& io);

/// Write the per-core SSR index vectors into the cluster's TCDM and load
/// the per-core programs: all of staging that a run's timing reads, since
/// timing never depends on grid or coefficient values. analyze_cost prices
/// a cell with this alone.
void stage_programs(const CompiledKernel& ck, Cluster& cluster);

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
