// FP subsystem of one Snitch-like core.
//
// The integer core (or the FREP sequencer) enqueues offloaded FP
// instructions into a small queue; the FPU issues them strictly in order,
// at most one per cycle, with a pipelined 3-cycle latency for arithmetic.
// Register reads of ft0..ft2 pop SSR FIFOs when streaming is enabled, once
// per source, so an op that names one stream register twice issues only
// once two elements are buffered; writes to a write-configured stream
// register push into the lane's store FIFO. An FP LSU with a single
// pipelined TCDM port serves fld/fsd.
//
// Each op is decoded once per program load (decode_fp_op, core/fp_op.hpp)
// into the 16-byte queue entry that issue reads. Issue also fixes where the
// result goes: the register file, or a write stream whose FIFO slot it
// reserves. Retire follows that choice even if SSR is toggled while the op
// is in flight. Each cycle the head cannot issue is charged to one stall
// counter and to the head's pc in a per-pc table.
#pragma once

#include <array>
#include <bit>
#include <vector>

#include "common/fixed_queue.hpp"
#include "core/fp_op.hpp"
#include "core/perf_counters.hpp"
#include "mem/tcdm.hpp"
#include "ssr/ssr_unit.hpp"

namespace saris {

inline constexpr u32 kFpuQueueDepth = 8;

class FpSubsystem {
 public:
  FpSubsystem(Tcdm& tcdm, SsrUnit& ssr, CorePerf& perf,
              std::array<double, kNumFRegs>& fregs, u32 core_id);

  bool queue_full() const { return queue_.full(); }
  /// Append an entry to the queue (fetch path or FREP sequencer) and return
  /// it. The slot holds a stale entry: the caller copies a whole decoded
  /// FpOp into it, then edits it in place. Building an entry field by field
  /// on the stack and copying it in would stall the host on store
  /// forwarding.
  FpOp& enqueue() { return queue_.push_slot(); }

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

  /// True when no instruction is queued, in flight, or waiting on memory:
  /// what halt and ssr_dis wait for.
  bool drained() const {
    return queue_.empty() && pipe_.empty() && !lsu_busy_;
  }

  /// Stall cycles by the pc of the queue head that stalled; each field sums
  /// to its CorePerf fpu_stall_* counter.
  const std::vector<PcStalls>& pc_stalls() const { return pc_stalls_; }
  /// Size the per-pc table, zeroed, for a program of `n` instructions
  /// (Core::load_program, before the first tick).
  void clear_pc_stalls(u32 n) { pc_stalls_.assign(n, PcStalls{}); }

 private:
  /// An issued op: its result and where it goes. The destination is
  /// decided at issue, where a stream destination reserves its FIFO slot,
  /// so toggling SSR while the op is in flight does not re-route it.
  struct Inflight {
    Cycle done_at = 0;
    double result = 0.0;
    FReg freg{};
    bool to_sr = false;  ///< push to freg's write lane, not the register file
  };

  bool operands_ready(const FpOp& q, Cycle now) const;
  double read_src(FReg r);
  /// Read (popping stream registers) every FP source of `q`, in operand
  /// order.
  std::array<double, 3> read_sources(const FpOp& q);
  /// Source `k` of `q` can be read: a stream source has an element
  /// buffered for it after those the op's earlier sources pop, any other
  /// source is ready on the scoreboard.
  bool src_ready(const FpOp& q, u32 k, Cycle now) const;

  Tcdm& tcdm_;
  SsrUnit& ssr_;
  CorePerf& perf_;
  std::array<double, kNumFRegs>& fregs_;

  FixedQueue<FpOp, kFpuQueueDepth> queue_;
  /// Issued ops in issue order. At most one op issues per cycle and each
  /// retires within kFpuLatencyCycles, so that many slots suffice; and
  /// completion cycles never decrease in issue order, so the finished ops
  /// are always a prefix.
  FixedQueue<Inflight, kFpuLatencyCycles> pipe_;
  std::array<Cycle, kNumFRegs> freg_ready_{};
  std::vector<PcStalls> pc_stalls_;

  u32 lsu_port_;
  bool lsu_busy_ = false;
  bool lsu_is_load_ = false;
  FReg lsu_dest_{};
};

}  // namespace saris
