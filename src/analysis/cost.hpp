// Static per-core cost of a CompiledKernel: the cell priced by running it.
//
// analyze_cost builds a cluster of one core per program, switches its TCDM
// to ideal arbitration (Tcdm::set_ideal_arbitration: every pending request
// granted each cycle), stages only the SSR index vectors and the programs
// (stage_programs), and steps the simulator until every core halts or 2^26
// cycles pass. Kernels take no runtime arguments and FP data never
// influences timing, so the grids and coefficients stay zero.
// Every report field is read off the cores: CorePerf counters, busy
// windows, the FPU's per-pc stall table and the stream launch log. There is
// one executor of the pipeline; this pass prices on it.
//
// Contract (tests/test_cost.cpp, tests/test_contract.cpp):
//   * complete — every core halted within the budget. A hand-built program
//     whose timing reads loaded data or rdcycle is priced on zero data.
//   * exact — complete AND the verifier's walk completed with no TCDM bank
//     touched by two core ports (AbsintResult::conflict_free). A lone
//     requester per bank is always granted, so the ideal TCDM is the real
//     TCDM, and the predicted cycles and every per-cause counter equal a
//     measured overlap-DMA-off run bit-for-bit.
//   * banded — under TCDM bank conflicts the prediction is an optimistic
//     bound: predicted <= measured, within 10% on every cell.
// A program that trips a simulator SARIS_CHECK aborts when priced, as it
// does when run.
//
// The per-pc stalls and launches feed the performance linter
// (analysis/lint.hpp); its advisory findings land in CostReport::lint and
// never fail a compile. compile_kernel runs this pass when
// CodegenOptions::analyze_cost is on (default off).
#pragma once

#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/perf_counters.hpp"
#include "runtime/compiled_kernel.hpp"

namespace saris {

struct VerifyReport;

struct CoreCost {
  CorePerf perf;          ///< the priced run's counters
  Cycle busy = 0;         ///< halted_at + 1 (t0 = 0); 0 when not halted
  bool complete = false;  ///< the core halted within the budget
  std::vector<PcStalls> pc_stalls;  ///< indexed by program pc
};

struct CostReport {
  std::vector<CoreCost> cores;
  Cycle predicted_cycles = 0;  ///< cluster compute window, max(busy)
  bool complete = false;       ///< every core halted within the budget
  /// complete && core traffic provably conflict-free: prediction is claimed
  /// bit-exact against a measured overlap-DMA-off run.
  bool exact = false;
  std::vector<StreamLaunch> launches;  ///< by core, in launch order
  std::vector<Diagnostic> lint;        ///< advisory findings; never fatal
};

/// Price `ck` on an ideal-TCDM cluster and run the performance linter.
/// `rep` supplies absint's walk results (exactness gate, bank-hotspot lint)
/// and register pressure (register-pressure lint).
CostReport analyze_cost(const CompiledKernel& ck, const VerifyReport& rep);

}  // namespace saris
