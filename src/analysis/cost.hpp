// Static per-core cost of a CompiledKernel: the cell priced by running it.
//
// analyze_cost builds a cluster of one core per program, switches its TCDM
// to ideal arbitration (Tcdm::set_ideal_arbitration: every pending request
// granted each cycle), stages only the SSR index vectors and the programs
// (stage_programs), and steps the simulator until every core halts or 2^26
// cycles pass. Kernels take no runtime arguments and FP data never
// influences timing, so the grids and coefficients stay zero.
// Every report field is read off the run: CorePerf counters, busy windows,
// the FPU's per-pc stall table and the stream launch log from the cores,
// and each core port's grants per bank from the TCDM (Tcdm::bank_grants).
// There is one executor of the pipeline; this pass prices on it.
//
// Contract (tests/test_cost.cpp, tests/test_contract.cpp):
//   * complete — every core halted within the budget. A hand-built program
//     whose timing reads loaded data or rdcycle is priced on zero data.
//   * exact — complete AND the verifier's walk completed (no address
//     depends on data) AND no TCDM bank served two core ports
//     (CostReport::conflict_free). A lone requester per bank is always
//     granted, so the ideal TCDM is the real TCDM, and the predicted
//     cycles and every per-cause counter equal a measured overlap-DMA-off
//     run bit-for-bit.
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

#include <array>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/perf_counters.hpp"
#include "mem/tcdm.hpp"
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
  /// Grants per TCDM bank of each core port, indexed by simulator port id
  /// c * kCorePorts + port (analysis/absint.hpp).
  std::vector<std::array<u64, kTcdmBanks>> port_banks;

  /// The number of core ports granted on bank `b`.
  u32 requesters(u32 b) const;
  /// No bank served two core ports. A port posts at most one request per
  /// cycle and a bank's lone pending request is granted, so the cores'
  /// traffic then never conflicts (the overlap DMA's may).
  bool conflict_free() const;
};

/// Price `ck` on an ideal-TCDM cluster and run the performance linter.
/// `rep` supplies the walk's completeness (exactness gate) and register
/// pressure (register-pressure lint).
CostReport analyze_cost(const CompiledKernel& ck, const VerifyReport& rep);

}  // namespace saris
