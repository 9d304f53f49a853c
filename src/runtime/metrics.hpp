// Aggregated metrics of one kernel run — the quantities the paper's figures
// plot (speedup, FPU utilization, IPC, power inputs, scale-out inputs).
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/perf_counters.hpp"

namespace saris {

struct RunMetrics {
  // Timing.
  Cycle cycles = 0;                 ///< compute window (launch -> last halt)
  std::vector<Cycle> core_busy;     ///< per-core launch -> own halt

  // Aggregate instruction/FLOP counts over all cores.
  u64 flops = 0;
  u64 fpu_useful_ops = 0;
  u64 fp_instrs = 0;
  u64 int_instrs = 0;
  u64 fp_loads = 0;
  u64 fp_stores = 0;

  // Memory system.
  u64 tcdm_accesses = 0;
  u64 tcdm_conflicts = 0;
  std::vector<u64> tcdm_port_accesses;  ///< per requester port, port order
  std::vector<u64> tcdm_port_conflicts;
  u64 ssr_elems = 0;
  u64 ssr_idx_words = 0;
  u64 icache_misses = 0;
  u64 icache_hits = 0;
  double dma_util = 0.0;  ///< achieved/peak DMA bandwidth while active
  u64 dma_bytes = 0;

  // Verification.
  double max_rel_err = 0.0;

  // Host-side wall-clock time spent inside the compute-window cycle loop
  // (codegen, staging, the DMA drain, verification excluded) — the
  // simulator-throughput numerator is `cycles / step_wall_seconds`.
  double step_wall_seconds = 0.0;

  /// Optional per-cycle count of cores issuing useful FPU ops (filled when
  /// RunConfig::record_timeline is set; see runtime/trace.hpp to render).
  std::vector<u32> fpu_timeline;

  // Per-core counters (stall breakdowns etc.).
  std::vector<CorePerf> per_core;

  u32 num_cores() const { return static_cast<u32>(per_core.size()); }

  /// Paper Fig. 3b: useful-FPU-op issues per core-cycle.
  double fpu_util() const;
  /// Paper Fig. 3b: mean per-core instructions per cycle (FREP replays
  /// count as issued instructions — this is how saris exceeds 1.0).
  double ipc() const;
  /// Fraction of peak compute (2 FLOP/cycle/core), for Table 2.
  double frac_peak() const;
  /// Max-over-mean of per-core busy time (scale-out imbalance input).
  double imbalance() const;
};

}  // namespace saris
