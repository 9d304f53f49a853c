// FP subsystem of one Snitch-like core.
//
// The integer core (or the FREP sequencer) enqueues offloaded FP
// instructions into a small queue; the FPU issues them strictly in order,
// at most one per cycle, with a pipelined 3-cycle latency for arithmetic.
// Register reads of ft0..ft2 pop SSR FIFOs when streaming is enabled;
// writes to a write-configured stream register push into the lane's store
// FIFO. An FP LSU with a single pipelined TCDM port serves fld/fsd.
#pragma once

#include <array>

#include "common/fixed_queue.hpp"
#include "core/perf_counters.hpp"
#include "isa/instr.hpp"
#include "mem/tcdm.hpp"
#include "ssr/ssr_unit.hpp"

namespace saris {

inline constexpr u32 kFpuQueueDepth = 8;
/// Issue-to-dependent-issue gap: a 3-stage FP64 pipeline with full result
/// forwarding to the issue stage (FPnew as configured in Snitch).
inline constexpr u32 kFpuLatencyCycles = 2;
inline constexpr u32 kFpuMoveLatency = 1;
static_assert(kFpuMoveLatency <= kFpuLatencyCycles,
              "the FPU pipeline holds at most kFpuLatencyCycles ops");

/// Issue-to-writeback latency of an FP compute op, by its latency class.
constexpr u32 fpu_latency(Op op) {
  return op_desc(op).lat == FpLat::kMove ? kFpuMoveLatency
                                         : kFpuLatencyCycles;
}

class FpSubsystem {
 public:
  FpSubsystem(Tcdm& tcdm, SsrUnit& ssr, CorePerf& perf,
              std::array<double, kNumFRegs>& fregs, u32 core_id);

  bool queue_full() const { return queue_.full(); }
  bool queue_empty() const { return queue_.empty(); }
  /// Enqueue an offloaded FP instruction (fetch path or FREP sequencer).
  void enqueue(const Instr& in);

  /// Phase 1: absorb FP-LSU responses granted last cycle.
  void collect(Cycle now);
  /// Phase 2: retire finished ops, then try to issue the queue head.
  void tick(Cycle now);

  /// True when no instruction is queued, in flight, or waiting on memory.
  bool drained() const;

  /// Back to power-on: queue, pipeline, scoreboard, and LSU state cleared.
  /// Part of the cluster re-arm contract (the owning Core resets the shared
  /// CorePerf counters and FP register file itself).
  void reset();

  /// Cheap activity flag: when true, collect() is a no-op and tick() only
  /// bumps the idle counter — callers may take an equivalent fast path.
  bool quiescent() const {
    return queue_.empty() && pipe_.empty() && !lsu_busy_;
  }

 private:
  struct Inflight {
    Instr in;
    Cycle done_at = 0;
    double result = 0.0;
  };

  bool operands_ready(const Instr& in, Cycle now) const;
  double read_src(FReg r);
  /// Read (popping stream registers) every FP source of `in`, in operand
  /// order.
  std::array<double, 3> read_sources(const Instr& in);
  bool src_ready(FReg r, Cycle now) const;
  void writeback(const Inflight& fin, Cycle now);

  Tcdm& tcdm_;
  SsrUnit& ssr_;
  CorePerf& perf_;
  std::array<double, kNumFRegs>& fregs_;

  FixedQueue<Instr> queue_;
  /// Issued ops in issue order. At most one op issues per cycle and each
  /// retires within kFpuLatencyCycles, so that many slots suffice; and
  /// completion cycles never decrease in issue order, so the finished ops
  /// are always a prefix.
  FixedQueue<Inflight> pipe_;
  std::array<Cycle, kNumFRegs> freg_ready_{};

  u32 lsu_port_;
  bool lsu_busy_ = false;
  bool lsu_is_load_ = false;
  FReg lsu_dest_{};
};

}  // namespace saris
