// Typed, recoverable run-level errors.
//
// The simulator distinguishes two failure classes:
//
//  - Programming invariants (broken arbitration bookkeeping, malformed
//    generated code, out-of-range ISA immediates) stay SARIS_CHECK aborts
//    (common/log.hpp): the process state is untrusted, nothing should catch
//    them.
//  - Run-level conditions — a verification-tolerance miss, a hang-guard
//    overrun, bad user config/geometry, an injected fault, a wedged cluster
//    — are properties of ONE job, not of the process. They throw SimError,
//    carrying an error code plus the (code, variant, seed, cluster, cycle)
//    context needed to reproduce the failure, so a sweep worker can catch
//    them, retry the retryable ones, and keep the rest of the matrix alive
//    (runtime/sweep.hpp), and a System run can quarantine the failed
//    cluster instead of dying (system/system_runner.hpp).
#pragma once

#include <exception>
#include <sstream>
#include <string>

#include "common/types.hpp"

namespace saris {

enum class SimErrc : u8 {
  kNone = 0,
  /// Verification miss beyond RunConfig::tolerance. Retryable: on real
  /// hardware (and under fault injection) data corruption is transient.
  kVerifyFailed,
  /// The kernel did not halt and drain its DMA within RunConfig::max_cycles.
  /// Deterministic — a retry replays the same schedule — so not retryable.
  kMaxCyclesExceeded,
  /// The per-tile wall-clock watchdog fired (RunConfig::max_wall_seconds).
  /// Retryable: host load, not simulated behavior, sets the wall clock.
  kWallClockTimeout,
  /// Bad user configuration or geometry (wrong input/coeff counts, artifact
  /// shape mismatch, degenerate system shapes). Not retryable.
  kBadConfig,
  /// Verification miss with a known injected fault on record (the
  /// fault-injection harness corrupted data this run). Retryable: transient
  /// faults clear on re-execution.
  kInjectedFault,
  /// A cluster wedged (injected hard-stall detected). Retryable.
  kClusterStall,
  /// The static kernel verifier rejected the generated program (bad control
  /// flow, use-before-def, unbounded or out-of-arena memory access, SSR
  /// misuse). Deterministic codegen property — not retryable.
  kIllegalProgram,
};

const char* sim_errc_name(SimErrc c);

/// True for error codes where a bounded re-run can deterministically
/// succeed (transient injected faults, host-load timeouts); false where a
/// retry must replay the identical failure.
bool sim_errc_retryable(SimErrc c);

class SimError : public std::exception {
 public:
  SimError(SimErrc errc, std::string code, std::string variant, u64 seed,
           i64 cluster, Cycle cycle, std::string detail);
  /// Context-filling convenience: code/variant/seed/cluster come from the
  /// calling thread's run context (common/run_context.hpp), so throw sites
  /// inside the run pipeline only supply what they know locally.
  SimError(SimErrc errc, Cycle cycle, std::string detail);

  const char* what() const noexcept override { return what_.c_str(); }

  SimErrc errc() const { return errc_; }
  bool retryable() const { return sim_errc_retryable(errc_); }
  const std::string& code() const { return code_; }
  const std::string& variant() const { return variant_; }
  u64 seed() const { return seed_; }
  /// Cluster id within a System run; -1 for single-cluster runs.
  i64 cluster() const { return cluster_; }
  /// Cluster-local cycle at which the condition was detected (0 when not
  /// applicable, e.g. config errors raised before the run starts).
  Cycle cycle() const { return cycle_; }
  const std::string& detail() const { return detail_; }

 private:
  SimErrc errc_;
  std::string code_;
  std::string variant_;
  u64 seed_;
  i64 cluster_;
  Cycle cycle_;
  std::string detail_;
  std::string what_;
};

}  // namespace saris

/// Throw a SimError with a streamed detail message, filling the job context
/// (code/variant/seed/cluster) from the calling thread's run context.
#define SARIS_RAISE(errc, cycle, ...)                                   \
  do {                                                                  \
    std::ostringstream saris_raise_oss_;                                \
    saris_raise_oss_ << __VA_ARGS__;                                    \
    throw ::saris::SimError((errc), (cycle), saris_raise_oss_.str());   \
  } while (0)
