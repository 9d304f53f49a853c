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
      lsu_port_(tcdm.make_port("flsu" + std::to_string(core_id))) {
  freg_ready_.fill(0);
}

bool FpSubsystem::src_ready(const FpOp& q, u32 k, Cycle now) const {
  const FReg r = q.src[k];
  if (ssr_.enabled() && is_ssr_reg(r)) {
    u32 pops = 1;  // this source's, then one per earlier source naming r
    for (u32 j = 0; j < k; ++j) pops += q.src[j].idx == r.idx ? 1 : 0;
    return ssr_.lane(ssr_lane_of(r)).can_pop(pops);
  }
  return freg_ready_[r.idx] <= now;
}

double FpSubsystem::read_src(FReg r) {
  if (ssr_.enabled() && is_ssr_reg(r)) {
    return ssr_.lane(ssr_lane_of(r)).pop();
  }
  return fregs_[r.idx];
}

bool FpSubsystem::operands_ready(const FpOp& q, Cycle now) const {
  for (u32 k = 0; k < q.nsrc; ++k) {
    if (!src_ready(q, k, now)) return false;
  }
  return true;
}

std::array<double, 3> FpSubsystem::read_sources(const FpOp& q) {
  std::array<double, 3> v{};
  for (u32 k = 0; k < q.nsrc; ++k) v[k] = read_src(q.src[k]);
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
    const Inflight& fin = pipe_.front();
    if (fin.to_sr) {
      ssr_.lane(ssr_lane_of(fin.freg)).push(fin.result);
    } else {
      fregs_[fin.freg.idx] = fin.result;
    }
    pipe_.pop();
  }

  // ---- issue at most one instruction, in order ----
  if (queue_.empty()) {
    ++perf_.fpu_idle_empty;
    return;
  }
  const FpOp& q = queue_.front();  // popped last, once it issues
  PcStalls& at_pc = pc_stalls_[q.pc];

  // Memory ops need the LSU port.
  if (q.mem != MemDir::kNone) {
    if (lsu_busy_) {
      ++perf_.fpu_stall_mem;
      ++at_pc.mem;
      return;
    }
    if (q.mem == MemDir::kLoad) {
      SARIS_CHECK(!(ssr_.enabled() && is_ssr_reg(q.dst)),
                  "fld into an enabled stream register");
      tcdm_.post(lsu_port_, q.target, kWordBytes, /*is_write=*/false, 0);
      lsu_busy_ = true;
      lsu_is_load_ = true;
      lsu_dest_ = q.dst;
      freg_ready_[q.dst.idx] = ~static_cast<Cycle>(0);  // until data returns
      ++perf_.fp_loads;
    } else {
      if (!operands_ready(q, now)) {
        ++perf_.fpu_stall_operand;
        ++at_pc.operand;
        return;
      }
      const double data = read_sources(q)[0];  // a store's one FP source
      tcdm_.post(lsu_port_, q.target, kWordBytes, /*is_write=*/true,
                 std::bit_cast<u64>(data));
      lsu_busy_ = true;
      lsu_is_load_ = false;
      ++perf_.fp_stores;
    }
    ++perf_.fp_instrs;
    queue_.pop();
    return;
  }

  // Arithmetic / moves.
  if (!operands_ready(q, now)) {
    // Attribute the stall: SR FIFO empty vs scoreboard.
    bool sr_block = false;
    for (u32 k = 0; k < q.nsrc; ++k) {
      sr_block = sr_block || (ssr_.enabled() && is_ssr_reg(q.src[k]) &&
                              !src_ready(q, k, now));
    }
    if (sr_block) {
      ++perf_.fpu_stall_sr_empty;
      ++at_pc.sr_empty;
    } else {
      ++perf_.fpu_stall_operand;
      ++at_pc.operand;
    }
    return;
  }

  const bool dst_is_sr = ssr_.enabled() && is_ssr_reg(q.dst) &&
                         ssr_.lane(ssr_lane_of(q.dst)).is_write_stream();
  if (dst_is_sr) {
    if (!ssr_.lane(ssr_lane_of(q.dst)).can_reserve_push()) {
      ++perf_.fpu_stall_sr_full;
      ++at_pc.sr_full;
      return;
    }
  } else {
    // In-order WAW guard on the architectural destination.
    if (freg_ready_[q.dst.idx] > now) {
      ++perf_.fpu_stall_operand;
      ++at_pc.operand;
      return;
    }
  }

  // All clear: pop sources (consuming SR elements) and start execution.
  const std::array<double, 3> src = read_sources(q);
  const double r = fp_alu(q.op, src[0], src[1], src[2]);
  if (dst_is_sr) {
    ssr_.lane(ssr_lane_of(q.dst)).reserve_push();
  } else {
    freg_ready_[q.dst.idx] = now + q.lat;
  }
  SARIS_CHECK(pipe_.empty() || pipe_.back().done_at <= now + q.lat,
              "FPU op would complete before an earlier-issued one");
  Inflight& fin = pipe_.push_slot();
  fin.done_at = now + q.lat;
  fin.result = r;
  fin.freg = q.dst;
  fin.to_sr = dst_is_sr;
  ++perf_.fp_instrs;
  perf_.fpu_useful_ops += q.flops > 0 ? 1 : 0;
  perf_.flops += q.flops;
  queue_.pop();
}

}  // namespace saris
