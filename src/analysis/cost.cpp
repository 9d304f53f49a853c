// Static pipeline cost model: a cycle-by-cycle scoreboard walk of every
// core's program against an ideal (always-granted) TCDM.
//
// The walk is a transliteration of the simulator's per-cycle traversal
// (Core::tick full traversal, FpSubsystem::tick, SsrLane/SsrUnit tick,
// Cluster::step ordering) with two substitutions that make it static:
//   * memory: each requester port is a two-bit {pending, response} machine
//     that always grants — exact whenever no TCDM bank has two requesters
//     (a lone pending request is always granted by the real arbiter);
//   * data: integer registers are concrete-with-known-bits (KnownRegs, the
//     stepper absint uses too); FP data is never computed because it never
//     influences timing, and SSR lanes carry FIFO occupancy counts instead
//     of values.
// Anything whose *timing* depends on an unknown value (branch condition,
// frep repetition count, scfgwi operand) aborts that core's walk and marks
// the report incomplete; generated kernels are statically bounded, so this
// only fires on hand-built programs.
//
// The ICache and Barrier models are small, self-contained, and
// address-independent, so the real ones are reused verbatim.
#include "analysis/cost.hpp"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <sstream>
#include <string>

#include "analysis/known_regs.hpp"
#include "analysis/lint.hpp"
#include "analysis/verifier.hpp"
#include "cluster/barrier.hpp"
#include "codegen/options.hpp"
#include "core/core.hpp"
#include "core/fpu.hpp"
#include "core/frep.hpp"
#include "core/icache.hpp"

namespace saris {

namespace {

/// Walk budget: far above any real cell (tens of thousands of cycles), far
/// below anything that would make compile-time analysis noticeable.
constexpr Cycle kCostCycleBudget = 1u << 26;

/// One ideal TCDM requester port: posting always succeeds, the grant always
/// lands the next cycle. Mirrors the real port's idle/pending/response
/// handshake without addresses or data.
struct IdealPort {
  bool pending = false;
  bool resp_ready = false;

  bool idle() const { return !pending && !resp_ready; }
  void post() { pending = true; }
  void take() { resp_ready = false; }
  void arbitrate() {
    if (pending) {
      pending = false;
      resp_ready = true;
    }
  }
};

/// An offloaded FP instruction plus the original-program pc it came from
/// (FREP replays inherit the pc of the captured body instruction), so FPU
/// stalls can be attributed to source lines.
struct QueuedOp {
  Instr in;
  u32 pc = 0;
};

/// An issued op. As in FpSubsystem, whether its result goes to a write
/// stream is decided at issue, with the FIFO reservation.
struct InflightOp {
  Cycle done_at = 0;
  FReg freg{};
  bool to_sr = false;
};

/// FrepSequencer mirror that carries pcs through capture/replay. The
/// stagger rotation is replicated exactly (iteration-indexed offset applied
/// to FP registers at or above the stagger base).
struct SeqModel {
  std::vector<QueuedOp> buf;
  u32 to_capture = 0;
  u64 reps_left = 0;
  u32 pos = 0;
  u32 stagger = 1;
  u32 stagger_base = kNumFRegs;
  u64 iter = 0;

  bool capturing() const { return to_capture > 0; }
  bool replaying() const { return !capturing() && reps_left > 0; }
  bool busy() const { return capturing() || replaying(); }

  void start(u64 reps, u32 body_len, u32 stg, u32 stg_base) {
    buf.clear();
    to_capture = body_len;
    reps_left = reps - 1;
    pos = 0;
    stagger = stg;
    stagger_base = stg_base;
    iter = 1;
  }

  void capture(const QueuedOp& op) {
    buf.push_back(op);
    --to_capture;
  }

  QueuedOp next(bool* rotation_ok) {
    QueuedOp op = buf[pos];
    if (stagger > 1 &&
        !stagger_rotate(op.in, stagger_base,
                        static_cast<u32>(iter % stagger))) {
      *rotation_ok = false;
    }
    ++pos;
    if (pos == buf.size()) {
      pos = 0;
      --reps_left;
      ++iter;
    }
    return op;
  }
};

/// SsrLane mirror: stream progress and FIFO occupancy as counts. The config
/// snapshot is kept for launch records (lint) and element counts; addresses
/// are never generated because the ideal TCDM ignores them.
struct LaneModel {
  SsrStreamKind kind = SsrStreamKind::kNone;
  SsrLaneConfig cfg;
  u64 to_fetch = 0;
  u64 to_consume = 0;
  u32 inflight = 0;
  u32 rfifo = 0;
  u64 idx_to_fetch = 0;
  bool idx_req_inflight = false;
  u32 pending_gather = 0;
  u32 wfifo = 0;
  u32 reserved = 0;
  IdealPort port;

  bool busy() const { return kind != SsrStreamKind::kNone && to_consume > 0; }
  bool is_read() const {
    return kind == SsrStreamKind::kAffineRead ||
           kind == SsrStreamKind::kIndirectRead;
  }
  bool is_write() const { return kind == SsrStreamKind::kAffineWrite; }
  bool can_pop() const { return is_read() && rfifo > 0; }
  bool can_reserve_push() const {
    return is_write() && wfifo + reserved < kSsrFifoDepth;
  }
  u32 idx_per_word() const { return kWordBytes / cfg.idx_size; }
  bool residual_clear() const {
    return rfifo == 0 && wfifo == 0 && pending_gather == 0 && inflight == 0 &&
           !idx_req_inflight;
  }
};

/// One core's scoreboard state. Mirrors Core + FpSubsystem + SsrUnit.
class CoreModel {
 public:
  CoreModel(u32 id, const Program& prog, Barrier& barrier)
      : id_(id), prog_(prog), barrier_(barrier) {
    freg_ready_.fill(0);
    cost_.pc_stalls.resize(prog.size());
  }

  bool halted() const { return cost_.perf.halted; }
  bool failed() const { return failed_; }

  /// Full traversal of one cycle, including after halt: a halted core's
  /// drained FPU keeps bumping the idle counter, as it does in the
  /// simulator, which ticks every core every cycle.
  void tick(Cycle now) {
    ssr_collect();
    fpu_collect(now);
    if (int_store_wait_ && ilsu_.resp_ready) {
      ilsu_.take();
      int_store_wait_ = false;
    }
    fpu_tick(now);
    if (seq_.replaying() && queue_.size() < kFpuQueueDepth) {
      bool rot_ok = true;
      queue_.push_back(seq_.next(&rot_ok));
      if (!rot_ok) fail(pc_, "frep stagger rotation past f31");
    }
    int_step(now);
    ssr_tick();
  }

  /// End-of-cycle arbitration over this core's six ports (cluster order).
  void arbitrate() {
    idx_port_.arbitrate();
    for (LaneModel& l : lanes_) l.port.arbitrate();
    flsu_.arbitrate();
    ilsu_.arbitrate();
  }

  CoreCost take_cost(bool budget_ok) {
    cost_.complete = cost_.perf.halted && !failed_ && budget_ok;
    cost_.busy = cost_.perf.halted ? cost_.perf.halted_at + 1 : 0;
    return std::move(cost_);
  }

  const std::string& fail_msg() const { return fail_msg_; }
  u32 fail_pc() const { return fail_pc_; }
  std::vector<StreamLaunch>& launches() { return launches_; }

 private:
  void fail(u32 pc, const std::string& what) {
    if (failed_) return;
    failed_ = true;
    fail_pc_ = pc;
    fail_msg_ = what;
  }

  // ---- SSR unit mirror ----
  bool ssr_any_busy() const {
    for (const LaneModel& l : lanes_) {
      if (l.busy()) return true;
    }
    return false;
  }

  void ssr_collect() {
    for (LaneModel& l : lanes_) {
      if (l.inflight > 0 && l.port.resp_ready) {
        l.port.take();
        --l.inflight;
        if (l.is_read()) {
          ++l.rfifo;
        } else {
          if (l.to_consume == 0) {
            fail(pc_, "write ack past end of stream");
            return;
          }
          --l.to_consume;
        }
      }
    }
    if (idx_inflight_lane_ < kNumSsrLanes && idx_port_.resp_ready) {
      idx_port_.take();
      LaneModel& l = lanes_[idx_inflight_lane_];
      l.idx_req_inflight = false;
      u32 n = static_cast<u32>(
          std::min<u64>(l.idx_per_word(), l.idx_to_fetch));
      l.pending_gather += n;
      l.idx_to_fetch -= n;
      idx_inflight_lane_ = kNumSsrLanes;
    }
  }

  void ssr_tick() {
    if (idx_inflight_lane_ == kNumSsrLanes && idx_port_.idle()) {
      for (u32 k = 0; k < kNumIndirectSsrLanes; ++k) {
        u32 cand = (idx_rr_ + k) % kNumIndirectSsrLanes;
        LaneModel& l = lanes_[cand];
        bool wants = l.kind == SsrStreamKind::kIndirectRead &&
                     l.idx_to_fetch > 0 && !l.idx_req_inflight &&
                     kSsrIdxQueueDepth - l.pending_gather >= l.idx_per_word();
        if (wants) {
          idx_port_.post();
          l.idx_req_inflight = true;
          idx_inflight_lane_ = cand;
          idx_rr_ = (cand + 1) % kNumIndirectSsrLanes;
          break;
        }
      }
    }
    for (LaneModel& l : lanes_) {
      switch (l.kind) {
        case SsrStreamKind::kNone:
          break;
        case SsrStreamKind::kAffineRead:
          if (l.to_fetch > 0 && l.port.idle() &&
              l.rfifo + l.inflight < kSsrFifoDepth) {
            l.port.post();
            ++l.inflight;
            --l.to_fetch;
          }
          break;
        case SsrStreamKind::kIndirectRead:
          if (l.to_fetch > 0 && l.pending_gather > 0 && l.port.idle() &&
              l.rfifo + l.inflight < kSsrFifoDepth) {
            --l.pending_gather;
            l.port.post();
            ++l.inflight;
            --l.to_fetch;
          }
          break;
        case SsrStreamKind::kAffineWrite:
          if (l.wfifo > 0 && l.port.idle() && l.inflight == 0) {
            --l.wfifo;
            l.port.post();
            ++l.inflight;
          }
          break;
      }
    }
  }

  void lane_launch(u32 lane, SsrStreamKind kind, Addr base) {
    LaneModel& l = lanes_[lane];
    if (!l.residual_clear()) {
      fail(pc_, "stream launch with residual lane state");
      return;
    }
    l.kind = kind;
    switch (kind) {
      case SsrStreamKind::kAffineRead:
        l.to_fetch = l.to_consume = l.cfg.affine_elems();
        break;
      case SsrStreamKind::kAffineWrite:
        l.to_consume = l.cfg.affine_elems();
        l.to_fetch = 0;
        break;
      case SsrStreamKind::kIndirectRead:
        l.idx_to_fetch = l.cfg.idx_count;
        l.to_fetch = l.to_consume = l.cfg.idx_count;
        break;
      case SsrStreamKind::kNone:
        fail(pc_, "launch(kNone)");
        return;
    }
    launches_.push_back(
        StreamLaunch{id_, pc_, lane, kind, l.cfg, base});
  }

  // ---- FP subsystem mirror ----
  bool fpu_drained() const {
    return queue_.empty() && pipe_.empty() && !lsu_busy_;
  }

  void fpu_collect(Cycle now) {
    if (lsu_busy_ && flsu_.resp_ready) {
      flsu_.take();
      if (lsu_is_load_) freg_ready_[lsu_dest_] = now + 1;
      lsu_busy_ = false;
    }
  }

  bool src_ready(FReg r, Cycle now) const {
    if (ssr_enabled_ && is_ssr_reg(r)) {
      return lanes_[ssr_lane_of(r)].can_pop();
    }
    return freg_ready_[r.idx] <= now;
  }

  /// Consume one element when `r` is a stream register (occupancy only).
  void pop_src(FReg r) {
    if (ssr_enabled_ && is_ssr_reg(r)) {
      LaneModel& l = lanes_[ssr_lane_of(r)];
      --l.rfifo;
      --l.to_consume;
    }
  }

  bool operands_ready(const Instr& in, Cycle now) const {
    bool ready = true;
    for_each_fp_read(in, [&](FReg r) { ready = ready && src_ready(r, now); });
    return ready;
  }

  PcStalls& attr(u32 pc) { return cost_.pc_stalls[pc]; }

  void fpu_tick(Cycle now) {
    CorePerf& perf = cost_.perf;
    if (queue_.empty() && pipe_.empty()) {
      ++perf.fpu_idle_empty;
      return;
    }

    for (std::size_t i = 0; i < pipe_.size();) {
      if (pipe_[i].done_at <= now) {
        if (pipe_[i].to_sr) {
          LaneModel& l = lanes_[ssr_lane_of(pipe_[i].freg)];
          --l.reserved;
          ++l.wfifo;
        }
        pipe_.erase(pipe_.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }

    if (queue_.empty()) {
      ++perf.fpu_idle_empty;
      return;
    }
    const QueuedOp head = queue_.front();
    const Instr& in = head.in;
    const OpDesc& d = op_desc(in.op);

    if (d.mem != MemDir::kNone) {
      if (lsu_busy_ || !flsu_.idle()) {
        ++perf.fpu_stall_mem;
        ++attr(head.pc).mem;
        return;
      }
      if (d.mem == MemDir::kLoad) {
        if (ssr_enabled_ && is_ssr_reg(in.frd)) {
          fail(head.pc, "fld into an enabled stream register");
          return;
        }
        flsu_.post();
        lsu_busy_ = true;
        lsu_is_load_ = true;
        lsu_dest_ = in.frd.idx;
        freg_ready_[in.frd.idx] = ~static_cast<Cycle>(0);
        ++perf.fp_loads;
      } else {
        if (!operands_ready(in, now)) {
          ++perf.fpu_stall_operand;
          ++attr(head.pc).operand;
          return;
        }
        for_each_fp_read(in, [&](FReg r) { pop_src(r); });
        flsu_.post();
        lsu_busy_ = true;
        lsu_is_load_ = false;
        ++perf.fp_stores;
      }
      queue_.pop_front();
      ++perf.fp_instrs;
      return;
    }

    if (!operands_ready(in, now)) {
      bool sr_block = false;
      for_each_fp_read(in, [&](FReg r) {
        sr_block = sr_block || (ssr_enabled_ && is_ssr_reg(r) &&
                                !lanes_[ssr_lane_of(r)].can_pop());
      });
      if (sr_block) {
        ++perf.fpu_stall_sr_empty;
        ++attr(head.pc).sr_empty;
      } else {
        ++perf.fpu_stall_operand;
        ++attr(head.pc).operand;
      }
      return;
    }

    const bool dst_is_sr = ssr_enabled_ && is_ssr_reg(in.frd) &&
                           lanes_[ssr_lane_of(in.frd)].is_write();
    if (dst_is_sr) {
      if (!lanes_[ssr_lane_of(in.frd)].can_reserve_push()) {
        ++perf.fpu_stall_sr_full;
        ++attr(head.pc).sr_full;
        return;
      }
    } else {
      if (freg_ready_[in.frd.idx] > now) {
        ++perf.fpu_stall_operand;
        ++attr(head.pc).operand;
        return;
      }
    }

    // Issue: consume SR source elements in the order the FPU reads them.
    for_each_fp_read(in, [&](FReg r) { pop_src(r); });
    const u32 lat = fpu_latency(in.op);
    if (dst_is_sr) {
      ++lanes_[ssr_lane_of(in.frd)].reserved;
    } else {
      freg_ready_[in.frd.idx] = now + lat;
    }
    pipe_.push_back(InflightOp{now + lat, in.frd, dst_is_sr});
    queue_.pop_front();
    ++perf.fp_instrs;
    perf.fpu_useful_ops += is_useful_fpu_op(in.op) ? 1 : 0;
    perf.flops += flops_of(in.op);
  }

  // ---- integer core mirror ----
  void int_step(Cycle now) {
    CorePerf& perf = cost_.perf;
    if (perf.halted || failed_) return;
    if (prog_.empty()) {
      perf.halted = true;
      perf.halted_at = now;
      return;
    }

    if (barrier_wait_) {
      if (barrier_.released(id_)) {
        barrier_wait_ = false;
      } else {
        ++perf.stall_barrier;
        return;
      }
    }

    if (stall_cycles_ > 0) {
      --stall_cycles_;
      return;
    }

    if (int_load_wait_) {
      if (!ilsu_.resp_ready) {
        ++perf.stall_int_lsu;
        return;
      }
      ilsu_.take();
      int_load_wait_ = false;
    }

    if (pc_ >= prog_.size()) {
      fail(pc_, "pc ran off the program end");
      return;
    }

    if (icache_paid_pc_ != static_cast<i64>(pc_)) {
      u32 pen = icache_.access(pc_ * 4);
      icache_paid_pc_ = static_cast<i64>(pc_);
      if (pen > 0) {
        stall_cycles_ = pen;
        perf.stall_icache += pen + 1;
        return;
      }
    }

    const Instr& in = prog_.at(pc_);
    const OpDesc& d = op_desc(in.op);

    switch (d.cls) {
      case OpClass::kFpCompute:
      case OpClass::kFpMem: {
        if (seq_.replaying()) {
          ++perf.stall_seq_busy;
          return;
        }
        if (queue_.size() >= kFpuQueueDepth) {
          ++perf.stall_fpu_queue_full;
          return;
        }
        QueuedOp op{in, pc_};
        queue_.push_back(op);
        ++perf.fp_offloads;
        if (seq_.capturing()) {
          if (!d.frep_body) {
            fail(pc_, "non-compute op in frep body");
            return;
          }
          seq_.capture(op);
        }
        ++pc_;
        return;
      }
      case OpClass::kInt:
        break;
      case OpClass::kBranch: {
        const KnownRegs::Branch b = regs_.branch(in);
        if (b == KnownRegs::Branch::kUnknown) {
          fail(pc_, "branch condition depends on an unknown value");
          return;
        }
        ++perf.int_instrs;
        if (b == KnownRegs::Branch::kTaken) {
          pc_ = in.target;
          stall_cycles_ = kBranchPenaltyCycles;
          perf.stall_branch += kBranchPenaltyCycles;
        } else {
          ++pc_;
        }
        return;
      }
      case OpClass::kIntMem:
        // No load is outstanding here: the wait above returned or retired it.
        if (int_store_wait_ || !ilsu_.idle()) {
          ++perf.stall_int_lsu;
          return;
        }
        ilsu_.post();
        if (d.mem == MemDir::kLoad) {
          int_load_wait_ = true;
        } else {
          int_store_wait_ = true;
        }
        break;
      case OpClass::kSys:
        if (!sys_step(in, now)) return;
        break;
    }
    // Loaded data and rdcycle are runtime values, so retire() marks them
    // unknown: a kernel that times itself cannot skew the prediction.
    regs_.retire(in);
    ++perf.int_instrs;
    ++pc_;
  }

  /// One kSys instruction; false when it stalled, halted or failed.
  bool sys_step(const Instr& in, Cycle now) {
    CorePerf& perf = cost_.perf;
    switch (in.op) {
      case Op::kFrep: {
        if (seq_.busy()) {
          ++perf.stall_seq_busy;
          return false;
        }
        if (!regs_.known(in.rs1)) {
          fail(pc_, "frep repetition count depends on an unknown value");
          return false;
        }
        const u64 reps = regs_.value(in.rs1);
        const u32 body = frep_body_len(in.imm);
        const u32 stg = frep_stagger(in.imm);
        if (reps < 1 || !frep_body_len_ok(body) || !frep_stagger_ok(stg)) {
          fail(pc_, "bad frep encoding");
          return false;
        }
        seq_.start(reps, body, stg, frep_stagger_base(in.imm));
        return true;
      }
      case Op::kScfgwi: {
        const ScfgSel sel = scfg_select(in.imm);
        if (!sel.lane_ok()) {
          fail(pc_, "scfgwi to bad lane");
          return false;
        }
        LaneModel& l = lanes_[sel.lane];
        if (l.busy()) {
          ++perf.stall_scfg_busy;
          return false;
        }
        if (!regs_.known(in.rs1)) {
          fail(pc_, "scfgwi value depends on an unknown value");
          return false;
        }
        const u32 value = regs_.value(in.rs1);
        const ScfgEffect e = apply_scfg_word(l.cfg, sel, value);
        if (e.status != ScfgStatus::kOk) {
          fail(pc_, scfg_status_text(e.status));
        } else if (e.launch != SsrStreamKind::kNone) {
          lane_launch(sel.lane, e.launch, value);
        }
        return true;  // a failed write retires; the walk stops after it
      }
      case Op::kSsrEn:
        ssr_enabled_ = true;
        return true;
      case Op::kSsrDis:
        if (ssr_any_busy() || !fpu_drained()) {
          ++perf.stall_halt_drain;
          return false;
        }
        ssr_enabled_ = false;
        return true;
      case Op::kBarrier:
        barrier_.arrive(id_);
        barrier_wait_ = true;
        return true;
      case Op::kHalt:
        if (!fpu_drained() || ssr_any_busy() || seq_.busy()) {
          ++perf.stall_halt_drain;
        } else {
          perf.halted = true;
          perf.halted_at = now;
        }
        return false;
      default:  // rdcycle, nop
        return true;
    }
  }

  u32 id_;
  const Program& prog_;
  Barrier& barrier_;
  ICache icache_;

  CoreCost cost_;
  std::vector<StreamLaunch> launches_;

  u32 pc_ = 0;
  KnownRegs regs_;
  u32 stall_cycles_ = 0;
  bool barrier_wait_ = false;
  bool int_load_wait_ = false;
  bool int_store_wait_ = false;
  i64 icache_paid_pc_ = -1;

  SeqModel seq_;
  std::deque<QueuedOp> queue_;
  std::vector<InflightOp> pipe_;
  std::array<Cycle, kNumFRegs> freg_ready_;
  bool lsu_busy_ = false;
  bool lsu_is_load_ = false;
  u8 lsu_dest_ = 0;
  IdealPort flsu_;
  IdealPort ilsu_;

  bool ssr_enabled_ = false;
  std::array<LaneModel, kNumSsrLanes> lanes_;
  IdealPort idx_port_;
  u32 idx_inflight_lane_ = kNumSsrLanes;
  u32 idx_rr_ = 0;

  bool failed_ = false;
  u32 fail_pc_ = 0;
  std::string fail_msg_;
};

}  // namespace

CostReport analyze_cost(const CompiledKernel& ck, const VerifyReport& rep) {
  CostReport out;
  const u32 n = static_cast<u32>(ck.programs.size());
  Barrier barrier(n);
  std::vector<CoreModel> cores;
  cores.reserve(n);
  for (u32 c = 0; c < n; ++c) {
    cores.emplace_back(c, ck.programs[c], barrier);
  }

  Cycle now = 0;
  bool budget_ok = true;
  while (true) {
    bool all_halted = true;
    bool any_failed = false;
    for (const CoreModel& c : cores) {
      all_halted = all_halted && c.halted();
      any_failed = any_failed || c.failed();
    }
    if (all_halted || any_failed) break;
    if (now >= kCostCycleBudget) {
      budget_ok = false;
      break;
    }
    for (CoreModel& c : cores) c.tick(now);
    for (CoreModel& c : cores) c.arbitrate();
    barrier.tick(now);
    ++now;
  }

  out.complete = true;
  for (CoreModel& c : cores) {
    for (StreamLaunch& sl : c.launches()) out.launches.push_back(sl);
    out.cores.push_back(c.take_cost(budget_ok));
    out.complete = out.complete && out.cores.back().complete;
  }
  // The loop exits the step after the last core halts, so `now` is the
  // cluster's compute window (t0 = 0), matching RunMetrics::cycles.
  out.predicted_cycles = now;
  out.exact = out.complete && rep.conflict.provably_conflict_free &&
              rep.conflict.exact;
  out.lint = lint_kernel(ck, rep, out);
  return out;
}

std::string render_cost(const CostReport& cost) {
  std::ostringstream os;
  os << "static cost model: " << cost.predicted_cycles << " cycles ("
     << (cost.exact ? "exact" : cost.complete ? "banded" : "incomplete")
     << "), " << cost.lint.size() << " lint finding(s)\n";
  for (std::size_t c = 0; c < cost.cores.size(); ++c) {
    const CorePerf& p = cost.cores[c].perf;
    os << "  core " << c << ": busy " << cost.cores[c].busy << ", fp "
       << p.fp_instrs << ", int " << p.int_instrs << ", sr_empty "
       << p.fpu_stall_sr_empty << ", operand " << p.fpu_stall_operand
       << ", barrier " << p.stall_barrier << "\n";
  }
  for (const Diagnostic& d : cost.lint) {
    os << "  " << diag_to_string(d) << "\n";
  }
  return os.str();
}

bool resolve_analyze_cost(const CodegenOptions& cg) {
  if (cg.analyze_cost >= 0) return cg.analyze_cost != 0;
  if (const char* env = std::getenv("SARIS_ANALYZE")) {
    const std::string s(env);
    if (s == "1" || s == "on" || s == "true") return true;
  }
  return false;
}

}  // namespace saris
