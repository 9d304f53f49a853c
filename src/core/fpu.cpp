#include "core/fpu.hpp"

#include <bit>

#include "common/log.hpp"

namespace saris {

FpSubsystem::FpSubsystem(Tcdm& tcdm, SsrUnit& ssr, CorePerf& perf,
                         std::array<double, kNumFRegs>& fregs, u32 core_id)
    : tcdm_(tcdm),
      ssr_(ssr),
      perf_(perf),
      fregs_(fregs),
      queue_(kFpuQueueDepth),
      pipe_(kFpuLatencyCycles),
      lsu_port_(tcdm.make_port("flsu" + std::to_string(core_id))) {
  freg_ready_.fill(0);
}

void FpSubsystem::enqueue(const Instr& in) {
  SARIS_CHECK(is_fp_op(in.op), "non-FP op offloaded: " << op_name(in.op));
  queue_.push(in);
}

void FpSubsystem::collect(Cycle now) {
  if (lsu_busy_ && tcdm_.response_ready(lsu_port_)) {
    u64 data = tcdm_.take_response(lsu_port_);
    if (lsu_is_load_) {
      fregs_[lsu_dest_.idx] = std::bit_cast<double>(data);
      freg_ready_[lsu_dest_.idx] = now + 1;
    }
    lsu_busy_ = false;
  }
}

bool FpSubsystem::src_ready(FReg r, Cycle now) const {
  if (ssr_.enabled() && is_ssr_reg(r)) {
    return ssr_.lane(ssr_lane_of(r)).can_pop();
  }
  return freg_ready_[r.idx] <= now;
}

double FpSubsystem::read_src(FReg r) {
  if (ssr_.enabled() && is_ssr_reg(r)) {
    return ssr_.lane(ssr_lane_of(r)).pop();
  }
  return fregs_[r.idx];
}

bool FpSubsystem::operands_ready(const Instr& in, Cycle now) const {
  bool ready = true;
  for_each_fp_read(in, [&](FReg r) { ready = ready && src_ready(r, now); });
  return ready;
}

std::array<double, 3> FpSubsystem::read_sources(const Instr& in) {
  std::array<double, 3> v{};
  u32 k = 0;
  for_each_fp_read(in, [&](FReg r) { v[k++] = read_src(r); });
  return v;
}

void FpSubsystem::tick(Cycle now) {
  // Idle short-circuit: nothing queued or in flight. Equivalent to falling
  // through the retire loop and the empty-queue check below.
  if (queue_.empty() && pipe_.empty()) {
    ++perf_.fpu_idle_empty;
    return;
  }

  // ---- retire finished arithmetic ----
  while (!pipe_.empty() && pipe_.front().done_at <= now) {
    writeback(pipe_.pop(), now);
  }

  // ---- issue at most one instruction, in order ----
  if (queue_.empty()) {
    ++perf_.fpu_idle_empty;
    return;
  }
  const Instr in = queue_.front();
  const OpDesc& d = op_desc(in.op);

  // Memory ops need the LSU port; the Core pre-resolved the address into
  // Instr::target.
  if (d.mem != MemDir::kNone) {
    if (lsu_busy_) {
      ++perf_.fpu_stall_mem;
      return;
    }
    if (d.mem == MemDir::kLoad) {
      SARIS_CHECK(!(ssr_.enabled() && is_ssr_reg(in.frd)),
                  "fld into an enabled stream register");
      tcdm_.post(lsu_port_, in.target, d.mem_bytes, /*is_write=*/false, 0);
      lsu_busy_ = true;
      lsu_is_load_ = true;
      lsu_dest_ = in.frd;
      freg_ready_[in.frd.idx] = ~static_cast<Cycle>(0);  // until data returns
      ++perf_.fp_loads;
    } else {
      if (!operands_ready(in, now)) {
        ++perf_.fpu_stall_operand;
        return;
      }
      const double data = read_sources(in)[0];  // a store's one FP source
      tcdm_.post(lsu_port_, in.target, d.mem_bytes, /*is_write=*/true,
                 std::bit_cast<u64>(data));
      lsu_busy_ = true;
      lsu_is_load_ = false;
      ++perf_.fp_stores;
    }
    queue_.pop();
    ++perf_.fp_instrs;
    return;
  }

  // Arithmetic / moves.
  if (!operands_ready(in, now)) {
    // Attribute the stall: SR FIFO empty vs scoreboard.
    bool sr_block = false;
    for_each_fp_read(in, [&](FReg r) {
      sr_block = sr_block || (ssr_.enabled() && is_ssr_reg(r) &&
                              !ssr_.lane(ssr_lane_of(r)).can_pop());
    });
    if (sr_block) {
      ++perf_.fpu_stall_sr_empty;
    } else {
      ++perf_.fpu_stall_operand;
    }
    return;
  }

  const bool dst_is_sr = ssr_.enabled() && is_ssr_reg(in.frd) &&
                         ssr_.lane(ssr_lane_of(in.frd)).is_write_stream();
  if (dst_is_sr) {
    if (!ssr_.lane(ssr_lane_of(in.frd)).can_reserve_push()) {
      ++perf_.fpu_stall_sr_full;
      return;
    }
  } else {
    // In-order WAW guard on the architectural destination.
    if (freg_ready_[in.frd.idx] > now) {
      ++perf_.fpu_stall_operand;
      return;
    }
  }

  // All clear: pop sources (consuming SR elements) and start execution.
  const std::array<double, 3> src = read_sources(in);
  const double r = fp_alu(in.op, src[0], src[1], src[2]);
  const u32 lat = fpu_latency(in.op);
  if (dst_is_sr) {
    ssr_.lane(ssr_lane_of(in.frd)).reserve_push();
  } else {
    freg_ready_[in.frd.idx] = now + lat;
  }
  SARIS_CHECK(pipe_.empty() || pipe_.back().done_at <= now + lat,
              "FPU op would complete before an earlier-issued one");
  pipe_.push(Inflight{in, now + lat, r});
  queue_.pop();
  ++perf_.fp_instrs;
  perf_.fpu_useful_ops += is_useful_fpu_op(in.op) ? 1 : 0;
  perf_.flops += flops_of(in.op);
}

void FpSubsystem::writeback(const Inflight& fin, Cycle /*now*/) {
  const Instr& in = fin.in;
  if (ssr_.enabled() && is_ssr_reg(in.frd) &&
      ssr_.lane(ssr_lane_of(in.frd)).is_write_stream()) {
    ssr_.lane(ssr_lane_of(in.frd)).push(fin.result);
  } else {
    fregs_[in.frd.idx] = fin.result;
  }
}

bool FpSubsystem::drained() const {
  return queue_.empty() && pipe_.empty() && !lsu_busy_;
}

void FpSubsystem::reset() {
  queue_.clear();
  pipe_.clear();
  freg_ready_.fill(0);
  lsu_busy_ = false;
  lsu_is_load_ = false;
  lsu_dest_ = FReg{};
}

}  // namespace saris
