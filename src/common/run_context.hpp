// Thread-local run context: which job this thread is currently simulating.
//
// Sweep workers and System runs execute many jobs per process; when one
// of them dies — a SARIS_CHECK abort, a SimError, a log line — the
// diagnostic must identify the job, not just the thread. The run pipeline
// (execute_kernel, the sweep workers, the System runner's per-cluster
// completion step) pushes a RunContextScope naming the (code, variant,
// seed, cluster) being executed; SARIS_CHECK failure messages and SARIS_WARN
// lines are prefixed with that tag, and SimError's context-filling
// constructor reads it.
#pragma once

#include <string>

#include "common/types.hpp"

namespace saris {

struct RunContext {
  bool active = false;
  std::string code;
  std::string variant;
  u64 seed = 0;
  i64 cluster = -1;  ///< cluster id within a System; -1 = single-cluster
};

/// The calling thread's current context (inactive when no scope is open).
const RunContext& current_run_context();

/// "jacobi_2d/saris seed=1 g=0" (g= only for cluster >= 0), or "" when no
/// scope is open. Used as the SARIS_CHECK / SARIS_WARN job prefix.
std::string run_context_tag();

/// RAII: sets the thread's run context for the lifetime of the scope and
/// restores the previous one on exit (scopes nest — the System runner opens
/// a per-cluster scope inside the run-level one).
class RunContextScope {
 public:
  RunContextScope(std::string code, std::string variant, u64 seed,
                  i64 cluster = -1);
  ~RunContextScope();
  RunContextScope(const RunContextScope&) = delete;
  RunContextScope& operator=(const RunContextScope&) = delete;

 private:
  RunContext prev_;
};

}  // namespace saris
