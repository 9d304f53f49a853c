// Per-core performance counters and run records, extracted after simulation
// exactly like the paper extracts utilization metrics from RTL simulation
// traces. Every run keeps them; the priced run of analysis/cost.hpp reads
// them off an ideal-TCDM cluster. kCounterTable is the one list of the
// counters: whatever compares, sums, prints or balances them iterates it.
#pragma once

#include <array>
#include <cstddef>

#include "common/types.hpp"

namespace saris {

/// What a counter tallies, which decides the law it enters. The integer
/// side's kinds come first, then the FPU side's, so each side is a range.
enum class Tally : u8 {
  kIntIssue,  ///< integer side: an instruction executed or an FP offload
  kIntStall,  ///< integer side: a stall cycle
  kFpuIssue,  ///< FPU side: an issue
  kFpuStall,  ///< FPU side: a stall cycle
  kFpuIdle,   ///< FPU side: a cycle with nothing enqueued
  kCount,     ///< in neither law
};

// The counters obey two conservation laws, enforced for measured and priced
// runs by tests/test_cost.cpp: a core's busy window (halted_at - t0 + 1) is
// int_side() + 1, the +1 being the halt cycle, which retires nothing, and
// the cluster's compute window is fpu_side(). Every integer-step and FPU-tick
// outcome bumps exactly one counter. The per-pc table of PcStalls splits the
// four fpu_stall_* counters by pc, so over a core's table each field sums to
// its counter.
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
  u64 int_side() const { return sum(Tally::kIntIssue, Tally::kIntStall); }
  /// One per FPU tick, so 0 until the core first ticks.
  u64 fpu_side() const { return sum(Tally::kFpuIssue, Tally::kFpuIdle); }

 private:
  /// The counters whose tally lies in [lo, hi].
  u64 sum(Tally lo, Tally hi) const;
};

/// FPU stall cycles charged to one program pc: the pc of the op at the head
/// of the offload queue when the FPU could not issue (an FREP replay carries
/// its body pc).
struct PcStalls {
  u64 operand = 0;   ///< scoreboard RAW/WAW waits
  u64 sr_empty = 0;  ///< SSR read FIFO empty
  u64 sr_full = 0;   ///< SSR write FIFO full
  u64 mem = 0;       ///< FP LSU busy
};

/// One u64 counter of CorePerf: its name, member, what it tallies and, for
/// the four FPU stalls, the PcStalls member that splits it by pc.
struct CounterRow {
  const char* name;
  u64 CorePerf::*field;
  Tally tally;
  u64 PcStalls::*by_pc = nullptr;
};

// clang-format off
inline constexpr std::array<CounterRow, 20> kCounterTable = {{
  {"int_instrs", &CorePerf::int_instrs, Tally::kIntIssue},
  {"fp_instrs", &CorePerf::fp_instrs, Tally::kFpuIssue},
  {"fp_offloads", &CorePerf::fp_offloads, Tally::kIntIssue},
  {"fpu_useful_ops", &CorePerf::fpu_useful_ops, Tally::kCount},
  {"flops", &CorePerf::flops, Tally::kCount},
  {"fp_loads", &CorePerf::fp_loads, Tally::kCount},
  {"fp_stores", &CorePerf::fp_stores, Tally::kCount},
  {"stall_icache", &CorePerf::stall_icache, Tally::kIntStall},
  {"stall_fpu_queue_full", &CorePerf::stall_fpu_queue_full, Tally::kIntStall},
  {"stall_seq_busy", &CorePerf::stall_seq_busy, Tally::kIntStall},
  {"stall_scfg_busy", &CorePerf::stall_scfg_busy, Tally::kIntStall},
  {"stall_branch", &CorePerf::stall_branch, Tally::kIntStall},
  {"stall_barrier", &CorePerf::stall_barrier, Tally::kIntStall},
  {"stall_int_lsu", &CorePerf::stall_int_lsu, Tally::kIntStall},
  {"stall_halt_drain", &CorePerf::stall_halt_drain, Tally::kIntStall},
  {"fpu_stall_operand", &CorePerf::fpu_stall_operand, Tally::kFpuStall,
   &PcStalls::operand},
  {"fpu_stall_sr_empty", &CorePerf::fpu_stall_sr_empty, Tally::kFpuStall,
   &PcStalls::sr_empty},
  {"fpu_stall_sr_full", &CorePerf::fpu_stall_sr_full, Tally::kFpuStall,
   &PcStalls::sr_full},
  {"fpu_stall_mem", &CorePerf::fpu_stall_mem, Tally::kFpuStall,
   &PcStalls::mem},
  {"fpu_idle_empty", &CorePerf::fpu_idle_empty, Tally::kFpuIdle},
}};
// clang-format on

/// Every u64 counter once, in declaration order: strictly later members,
/// as many as the words before `halted`.
constexpr bool counter_table_in_order() {
  const CorePerf p{};
  for (std::size_t i = 1; i < kCounterTable.size(); ++i) {
    if (&(p.*kCounterTable[i].field) <= &(p.*kCounterTable[i - 1].field)) {
      return false;
    }
  }
  return kCounterTable.size() * sizeof(u64) == offsetof(CorePerf, halted);
}
static_assert(counter_table_in_order(),
              "kCounterTable must list CorePerf's u64 counters in order");

inline u64 CorePerf::sum(Tally lo, Tally hi) const {
  u64 s = 0;
  for (const CounterRow& r : kCounterTable) {
    if (r.tally >= lo && r.tally <= hi) s += this->*r.field;
  }
  return s;
}

/// One SSR stream launch: the scfgwi that wrote a lane's launch word.
struct StreamLaunch {
  u32 core = 0;
  u32 pc = 0;
  u32 lane = 0;
};

}  // namespace saris
