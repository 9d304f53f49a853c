// FP subsystem of one Snitch-like core.
//
// The integer core (or the FREP sequencer) enqueues offloaded FP
// instructions into a small queue; the FPU issues them strictly in order,
// at most one per cycle, with a pipelined 3-cycle latency for arithmetic.
// Register reads of ft0..ft2 pop SSR FIFOs when streaming is enabled;
// writes to a write-configured stream register push into the lane's store
// FIFO. An FP LSU with a single pipelined TCDM port serves fld/fsd.
//
// Each op is decoded from its kOpTable row once, at enqueue, into the
// queue entry that issue reads. Issue also fixes where the result goes:
// the register file, or a write stream whose FIFO slot it reserves. Retire
// follows that choice even if SSR is toggled while the op is in flight.
#pragma once

#include <array>
#include <bit>

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
  /// Enqueue an offloaded FP instruction (fetch path or FREP sequencer).
  void enqueue(const Instr& in);

  /// Phase 1: absorb FP-LSU responses granted last cycle.
  void collect(Cycle now) {
    if (!lsu_busy_ || !tcdm_.response_ready(lsu_port_)) return;
    const u64 data = tcdm_.take_response(lsu_port_);
    if (lsu_is_load_) {
      fregs_[lsu_dest_.idx] = std::bit_cast<double>(data);
      freg_ready_[lsu_dest_.idx] = now + 1;
    }
    lsu_busy_ = false;
  }
  /// Phase 2: retire finished ops, then try to issue the queue head.
  void tick(Cycle now);

  /// True when no instruction is queued, in flight, or waiting on memory.
  /// Then collect() is a no-op and tick() only bumps the idle counter, so
  /// the Core may take an equivalent fast path.
  bool drained() const {
    return queue_.empty() && pipe_.empty() && !lsu_busy_;
  }

  /// Back to power-on: queue, pipeline, scoreboard, and LSU state cleared.
  /// Part of the cluster re-arm contract (the owning Core resets the shared
  /// CorePerf counters and FP register file itself).
  void reset();

 private:
  /// An offloaded op as issue reads it, decoded from its kOpTable row once
  /// at enqueue, so a head that waits on operands does not re-read the
  /// table or the slot mask every cycle.
  struct QueuedOp {
    Addr target = 0;  ///< fld/fsd address, resolved by the Core at offload
    Op op = Op::kNop;
    FReg dst{};
    std::array<FReg, 3> src{};  ///< FP sources in operand order
    u8 nsrc = 0;
    MemDir mem = MemDir::kNone;
    u8 mem_bytes = 0;
    u8 lat = 0;  ///< fpu_latency(op)
    u8 flops = 0;  ///< flops_of(op); nonzero marks useful FPU work
  };
  static_assert(sizeof(QueuedOp) == 16);

  /// An issued op: its result and where it goes. The destination is
  /// decided at issue, where a stream destination reserves its FIFO slot,
  /// so toggling SSR while the op is in flight does not re-route it.
  struct Inflight {
    Cycle done_at = 0;
    double result = 0.0;
    FReg freg{};
    bool to_sr = false;  ///< push to freg's write lane, not the register file
  };

  bool operands_ready(const QueuedOp& q, Cycle now) const;
  double read_src(FReg r);
  /// Read (popping stream registers) every FP source of `q`, in operand
  /// order.
  std::array<double, 3> read_sources(const QueuedOp& q);
  bool src_ready(FReg r, Cycle now) const;

  Tcdm& tcdm_;
  SsrUnit& ssr_;
  CorePerf& perf_;
  std::array<double, kNumFRegs>& fregs_;

  FixedQueue<QueuedOp, kFpuQueueDepth> queue_;
  /// Issued ops in issue order. At most one op issues per cycle and each
  /// retires within kFpuLatencyCycles, so that many slots suffice; and
  /// completion cycles never decrease in issue order, so the finished ops
  /// are always a prefix.
  FixedQueue<Inflight, kFpuLatencyCycles> pipe_;
  std::array<Cycle, kNumFRegs> freg_ready_{};

  u32 lsu_port_;
  bool lsu_busy_ = false;
  bool lsu_is_load_ = false;
  FReg lsu_dest_{};
};

}  // namespace saris
