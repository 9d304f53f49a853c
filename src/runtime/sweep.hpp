// Sweep engine: fans a list of kernel runs (typically the paper's whole
// (stencil code x variant) matrix) out across a pool of worker threads.
//
// Every job runs on its own Cluster, so jobs share no mutable state and the
// simulator's determinism makes the parallel results bit-identical to the
// sequential ones; the engine returns them in job order regardless of
// completion order. All figure/table benches drive their runs through this
// instead of hand-rolled loops.
//
// Workers share the process-wide PlanCache (runtime/plan_cache.hpp): every
// job compiles through it, so a sweep that revisits a (code, variant,
// options, shape) cell — repeated matrices, ablation grids, warm reruns —
// lowers it exactly once, and the golden reference for each (code, seed)
// pair is likewise memoized (stencil/reference.hpp). Cache hits are
// bit-identical to cold compiles, so the determinism contract is unchanged.
// Fault isolation: run_sweep_isolated is the one engine — one job's typed
// failure (common/sim_error.hpp) becomes a SweepResult instead of taking
// the sweep down, with bounded deterministic retry for retryable codes. A
// job's own RunConfig::max_wall_seconds is the wall-clock watchdog against
// one pathological cell starving the rest. run_sweep is the all-or-nothing
// form on top of it.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "fault/fault_plan.hpp"
#include "runtime/kernel_runner.hpp"
#include "stencil/codes.hpp"

namespace saris {

/// One unit of sweep work: a stencil code run under one configuration.
struct SweepJob {
  const StencilCode* code = nullptr;
  RunConfig cfg{};
  std::string label;  ///< free-form tag, carried through for reporting
  /// Per-job fault injection: when set, every attempt of this job runs
  /// under FaultPlan::storm(storm, fault_seed, attempt) — so a retry faces
  /// the same storm minus its expired (transient) events, deterministically.
  /// When unset, cfg.faults (if any; must then not be shared across
  /// concurrent jobs) is rewound and reused for each attempt.
  bool inject_faults = false;
  FaultStormConfig storm{};
  u64 fault_seed = 0;
};

struct SweepOptions {
  u32 threads = 0;  ///< as in sweep_thread_count
  /// Attempts per job (>= 1). Only SimError codes with
  /// sim_errc_retryable() true are retried; the rest fail immediately.
  u32 max_attempts = 1;
};

/// Outcome of one job under run_sweep_isolated.
struct SweepResult {
  bool ok = false;
  RunMetrics metrics{};  ///< valid iff ok
  SimErrc error_code = SimErrc::kNone;  ///< final attempt's code (if !ok)
  std::string error;     ///< final attempt's full what() (if !ok)
  u32 attempts = 0;      ///< attempts made
  /// The final attempt's typed error with full job context, null when ok.
  std::shared_ptr<const SimError> fault;
};

/// Fault-isolated sweep: run all jobs, catching each job's SimError into
/// its SweepResult. Results are in job order; with identical jobs/options
/// the outcomes, metrics, attempt counts, and error codes are identical
/// whatever the worker count.
std::vector<SweepResult> run_sweep_isolated(const std::vector<SweepJob>& jobs,
                                            const SweepOptions& opts = {});

/// Resolve the worker count: `requested` if nonzero, else the
/// SARIS_SWEEP_THREADS environment variable, else hardware concurrency;
/// clamped to [1, max(1, num_jobs)]. A set-but-invalid SARIS_SWEEP_THREADS
/// (zero, non-numeric, trailing garbage, overflow) raises kBadConfig naming
/// the value; either sweep raises it before any job runs.
u32 sweep_thread_count(u32 requested, std::size_t num_jobs);

/// Run all jobs and return their metrics in job order. `threads` as in
/// sweep_thread_count; 1 degenerates to a plain sequential loop (the
/// equivalence baseline for the determinism test). All-or-nothing: every
/// job runs once, then the first failed job's SimError in job order
/// propagates to the caller — use run_sweep_isolated to survive per-job
/// failures.
std::vector<RunMetrics> run_sweep(const std::vector<SweepJob>& jobs,
                                  u32 threads = 0);

/// One (code, base, saris) row of the paper's evaluation matrix.
struct MatrixRun {
  const StencilCode* code = nullptr;
  RunMetrics base;
  RunMetrics saris;
};

/// The standard job list behind run_matrix: both variants of every Table 1
/// code, in Table 1 order (base before saris per code). Exposed so
/// harnesses (the plan-cache tests, the wall-clock bench) can drive the
/// exact same jobs through custom schedules.
std::vector<SweepJob> matrix_jobs(u64 seed = 1);

/// Run both variants of every Table 1 code — the sweep behind fig3a/3b/4/5,
/// table 2, and the roofline — and return one row per code, in Table 1
/// order.
std::vector<MatrixRun> run_matrix(u64 seed = 1, u32 threads = 0);

/// True iff every simulation-determined field of the two metrics matches
/// exactly (host wall-clock time is excluded — it is the one field the
/// simulator does not determine). On mismatch, `why` (when non-null) names
/// the first differing field.
bool metrics_bit_identical(const RunMetrics& a, const RunMetrics& b,
                           std::string* why = nullptr);

}  // namespace saris
