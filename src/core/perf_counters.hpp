// Per-core performance counters and run records, extracted after simulation
// exactly like the paper extracts utilization metrics from RTL simulation
// traces. Every run keeps them; the priced run of analysis/cost.hpp reads
// them off an ideal-TCDM cluster.
#pragma once

#include "common/types.hpp"

namespace saris {

// The counters obey two conservation laws (enforced for measured and priced
// runs by tests/test_cost.cpp):
//   integer side, over this core's busy window (halted_at - t0 + 1):
//     busy == int_instrs + fp_offloads + every stall_* below + 1
//   (the +1 is the cycle that executes halt, which retires no instruction);
//   FPU side, over the cluster's compute window:
//     window == fp_instrs + fpu_stall_* + fpu_idle_empty.
// Every integer-step and FPU-tick outcome bumps exactly one counter. The
// per-pc table of PcStalls splits the four fpu_stall_* counters by pc, so
// over a core's table each field sums to its counter.
struct CorePerf {
  // Retirement / issue counts.
  u64 int_instrs = 0;      ///< instructions executed by the integer core
  u64 fp_instrs = 0;       ///< instructions issued by the FPU (incl. FREP replays)
  u64 fp_offloads = 0;     ///< integer-pipe cycles spent offloading FP instrs
  u64 fpu_useful_ops = 0;  ///< FPU issues doing useful compute (flops > 0)
  u64 flops = 0;           ///< double-precision FLOPs performed
  u64 fp_loads = 0;
  u64 fp_stores = 0;

  // Integer-core stall cycles by cause.
  u64 stall_icache = 0;      ///< miss-detection cycle + fill latency
  u64 stall_fpu_queue_full = 0;
  u64 stall_seq_busy = 0;    ///< FP fetch blocked on active FREP sequencer
  u64 stall_scfg_busy = 0;   ///< scfgwi waiting for a busy SSR lane to drain
  u64 stall_branch = 0;      ///< taken-branch bubbles
  u64 stall_barrier = 0;
  u64 stall_int_lsu = 0;     ///< integer load/store port busy or data wait
  u64 stall_halt_drain = 0;  ///< halt waiting for FPU/SSR drain

  // FPU-side stall cycles by cause (cycles where the FPU could not issue).
  u64 fpu_stall_operand = 0;   ///< scoreboard RAW/WAW
  u64 fpu_stall_sr_empty = 0;  ///< SR read FIFO empty
  u64 fpu_stall_sr_full = 0;   ///< SR write FIFO full
  u64 fpu_stall_mem = 0;       ///< FP LSU busy
  u64 fpu_idle_empty = 0;      ///< nothing enqueued

  // Lifecycle.
  bool halted = false;
  Cycle halted_at = 0;

  u64 total_instrs() const { return int_instrs + fp_instrs; }
};

/// FPU stall cycles charged to one program pc: the pc of the op at the head
/// of the offload queue when the FPU could not issue (an FREP replay carries
/// its body pc).
struct PcStalls {
  u64 operand = 0;   ///< scoreboard RAW/WAW waits
  u64 sr_empty = 0;  ///< SSR read FIFO empty
  u64 sr_full = 0;   ///< SSR write FIFO full
  u64 mem = 0;       ///< FP LSU busy
  u64 total() const { return operand + sr_empty + sr_full + mem; }
};

/// One SSR stream launch: the scfgwi that wrote a lane's launch word.
struct StreamLaunch {
  u32 core = 0;
  u32 pc = 0;
  u32 lane = 0;
};

}  // namespace saris
