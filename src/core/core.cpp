#include "core/core.hpp"

#include "common/log.hpp"

namespace saris {

Core::Core(u32 id, Tcdm& tcdm, Barrier& barrier)
    : id_(id),
      tcdm_(tcdm),
      barrier_(barrier),
      ssr_(tcdm, id),
      fpu_(tcdm, ssr_, perf_, fregs_, id),
      int_port_(tcdm.make_port("ilsu" + std::to_string(id))) {}

void Core::load_program(Program p) {
  SARIS_CHECK(perf_.fpu_side() == 0,
              "load_program on core " << id_ << ", which has already ticked");
  SARIS_CHECK(p.size() <= kMaxProgramInstrs,
              "program of " << p.size() << " instructions on core " << id_
                            << " exceeds " << kMaxProgramInstrs);
  prog_ = std::move(p);
  fp_ops_.assign(prog_.size(), FpOp{});
  for (u32 pc = 0; pc < prog_.size(); ++pc) {
    const Instr& in = prog_.instrs()[pc];
    if (!is_fp_op(in.op)) continue;
    fp_ops_[pc] = decode_fp_op(in);
    fp_ops_[pc].pc = static_cast<u16>(pc);
  }
  fpu_.clear_pc_stalls(prog_.size());
}

void Core::tick(Cycle now) {
  // Order matters: absorb last cycle's memory grants first so this cycle's
  // issue logic sees them; emit new SSR requests last so they use FIFO slots
  // freed this cycle.
  ssr_.collect(now);
  fpu_.collect(now);
  // Swallow pending write acks on the integer LSU port.
  if (int_store_wait_ && tcdm_.response_ready(int_port_)) {
    tcdm_.take_response(int_port_);
    int_store_wait_ = false;
  }
  fpu_.tick(now);
  // FREP replay: inject one instruction per cycle while there is room.
  if (seq_.replaying() && !fpu_.queue_full()) seq_.next(fpu_.enqueue());
  int_step(now);
  ssr_.tick(now);
}

bool Core::offload_stalls() {
  if (seq_.replaying()) {
    ++perf_.stall_seq_busy;
    return true;
  }
  if (fpu_.queue_full()) {
    ++perf_.stall_fpu_queue_full;
    return true;
  }
  return false;
}

bool Core::scfg_stalls(u32 lane) {
  if (!ssr_.lane(lane).busy()) return false;
  ++perf_.stall_scfg_busy;
  return true;
}

void Core::int_step(Cycle now) {
  if (perf_.halted) return;
  // The core waits on at most one reason at a time (see the file comment)
  // and re-tests only it; fetch and decode run once it clears. A core with
  // no program never waits.
  if (wait_ != Wait::kNone) {
    switch (wait_) {
      case Wait::kNone:  // excluded above
        break;
      case Wait::kBarrier:
        if (!barrier_.released(id_)) {
          ++perf_.stall_barrier;
          return;
        }
        break;
      case Wait::kCycles:
        if (stall_cycles_ > 0) {
          --stall_cycles_;
          return;
        }
        break;
      case Wait::kLoad: {
        if (!tcdm_.response_ready(int_port_)) {
          ++perf_.stall_int_lsu;
          return;
        }
        u64 data = tcdm_.take_response(int_port_);
        u32 v;
        if (int_load_size_ == 2) {
          v = static_cast<u32>(
              static_cast<i32>(static_cast<i16>(data & 0xFFFF)));
        } else {
          v = static_cast<u32>(data);
        }
        set_xreg(int_load_rd_.idx, v);
        break;  // the core resumes fetching this cycle
      }
      case Wait::kOffload:
        if (offload_stalls()) return;
        break;
      case Wait::kScfg:
        if (scfg_stalls(wait_lane_)) return;
        break;
    }
    wait_ = Wait::kNone;
  }

  if (prog_.empty()) {  // no program loaded: the core halts at once
    perf_.halted = true;
    perf_.halted_at = now;
    return;
  }

  SARIS_CHECK(pc_ < prog_.size(), "pc ran off the program end on core "
                                      << id_ << " (missing halt?)");

  // Instruction fetch (pay the I$ penalty once per new pc).
  if (icache_paid_pc_ != static_cast<i64>(pc_)) {
    u32 pen = icache_.access(pc_ * 4);
    icache_paid_pc_ = static_cast<i64>(pc_);
    if (pen > 0) {
      stall_cycles_ = pen;
      wait_ = Wait::kCycles;
      // The miss-detection cycle itself retires nothing, so account pen + 1
      // cycles: this one plus the `pen` refill cycles burned below.
      perf_.stall_icache += pen + 1;
      return;
    }
  }

  const Instr& in = prog_.at(pc_);
  const OpDesc& d = op_desc(in.op);

  switch (d.cls) {
    case OpClass::kFpCompute:
    case OpClass::kFpMem: {  // offload to the FP subsystem
      if (offload_stalls()) {
        wait_ = Wait::kOffload;
        return;
      }
      // Copy the decoded entry into its queue slot; never build it on the
      // stack (fpu.hpp says why).
      FpOp& q = fpu_.enqueue();
      q = fp_ops_[pc_];
      if (d.mem != MemDir::kNone) {
        // The integer core computes the effective address at offload time.
        q.target = xregs_[in.rs1.idx] + static_cast<u32>(in.imm);
      }
      ++perf_.fp_offloads;
      if (seq_.capturing()) {
        SARIS_CHECK(d.frep_body, "frep bodies must contain FP compute only");
        seq_.capture(q);
      }
      ++pc_;
      return;
    }
    case OpClass::kInt:
      set_xreg(in.rd.idx, int_alu(in.op, xregs_[in.rs1.idx],
                                  xregs_[in.rs2.idx], in.imm));
      break;
    case OpClass::kBranch:
      ++perf_.int_instrs;
      if (branch_taken(in.op, xregs_[in.rs1.idx], xregs_[in.rs2.idx])) {
        pc_ = in.target;
        stall_cycles_ = kBranchPenaltyCycles;
        wait_ = Wait::kCycles;
        perf_.stall_branch += kBranchPenaltyCycles;
      } else {
        ++pc_;
      }
      return;
    case OpClass::kIntMem: {
      // No load is outstanding here: the wait above returned or retired it,
      // so the port is busy exactly while a store ack is owed.
      if (int_store_wait_) {
        ++perf_.stall_int_lsu;
        return;
      }
      const Addr a = xregs_[in.rs1.idx] + static_cast<u32>(in.imm);
      if (d.mem == MemDir::kLoad) {
        tcdm_.post(int_port_, a, d.mem_bytes, /*is_write=*/false, 0);
        wait_ = Wait::kLoad;
        int_load_rd_ = in.rd;
        int_load_size_ = d.mem_bytes;
      } else {
        tcdm_.post(int_port_, a, d.mem_bytes, /*is_write=*/true,
                   xregs_[in.rs2.idx]);
        int_store_wait_ = true;
      }
      break;
    }
    case OpClass::kSys:
      if (!sys_step(in, now)) return;
      break;
  }
  ++perf_.int_instrs;
  ++pc_;
}

bool Core::sys_step(const Instr& in, Cycle now) {
  switch (in.op) {
    case Op::kFrep:
      if (seq_.busy()) {
        ++perf_.stall_seq_busy;
        return false;
      }
      seq_.start(xregs_[in.rs1.idx], frep_body_len(in.imm),
                 frep_stagger(in.imm), frep_stagger_base(in.imm));
      return true;
    case Op::kScfgwi: {
      const ScfgSel sel = scfg_select(in.imm);
      SARIS_CHECK(sel.lane_ok(), "scfgwi to bad lane " << sel.lane);
      if (scfg_stalls(sel.lane)) {
        wait_ = Wait::kScfg;
        wait_lane_ = sel.lane;
        return false;
      }
      if (ssr_.write_cfg(sel.lane, sel.word, xregs_[in.rs1.idx])) {
        launches_.push_back(StreamLaunch{id_, pc_, sel.lane});
      }
      return true;
    }
    case Op::kSsrEn:
      ssr_.set_enabled(true);
      return true;
    case Op::kSsrDis:
      if (ssr_.any_busy() || !fpu_.drained()) {
        ++perf_.stall_halt_drain;
        return false;
      }
      ssr_.set_enabled(false);
      return true;
    case Op::kBarrier:
      barrier_.arrive(id_);
      wait_ = Wait::kBarrier;
      return true;
    case Op::kHalt:
      if (!fpu_.drained() || ssr_.any_busy() || seq_.busy()) {
        ++perf_.stall_halt_drain;
      } else {
        perf_.halted = true;
        perf_.halted_at = now;
      }
      return false;  // halt never retires
    case Op::kCsrrCycle:
      // Low half of the 64-bit cycle counter; pair with kCsrrCycleH for
      // wrap-safe timing on runs past 2^32 cycles (RV32 rdcycle/rdcycleh).
      set_xreg(in.rd.idx, static_cast<u32>(now));
      return true;
    case Op::kCsrrCycleH:
      set_xreg(in.rd.idx, static_cast<u32>(now >> 32));
      return true;
    default:  // nop
      return true;
  }
}

}  // namespace saris
