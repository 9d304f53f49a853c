// One Snitch-like core: single-issue in-order integer pipeline that executes
// integer/control instructions locally and offloads FP instructions to the
// FP subsystem. Adds the two ISA extensions the paper builds on:
//  - SSR/SSSR stream registers (ft0..ft2 mapped to SsrUnit lanes),
//  - FREP hardware loop (FrepSequencer feeding the FPU queue while the
//    integer core runs ahead).
//
// load_program decodes every FP instruction once into a per-pc table of
// FPU queue entries (core/fp_op.hpp); an offload copies its pc's entry into
// the queue. Addresses of offloaded fld/fsd are computed by the integer
// core at offload time (as on Snitch) and written into the entry's target.
//
// The integer step waits on at most one reason at a time and keeps it
// (Core::Wait): a barrier, branch or I$ refill cycles, an integer load's
// response, an FP offload behind a replaying FREP sequencer or a full FPU
// queue, or an scfgwi to a busy stream lane. Each cycle it re-tests only
// that reason and books its counter; fetch and decode run once it clears.
// A stalled offload or scfgwi was already fetched and decoded, and pc_ has
// not moved, so it then takes the full path again, which re-tests its stall
// with the same code as the wait. The rarer stalls (an frep behind a busy
// sequencer, halt or ssr_dis draining, an integer access behind an owed
// store ack) keep no reason and retry the full step each cycle.
//
// Besides its CorePerf counters, every run records the FPU's stall cycles
// by pc (pc_stalls) and each stream launch with its scfgwi pc and lane
// (launches). A core runs one program from power-on: the constructor is the
// one definition of empty books and architectural state.
#pragma once

#include <array>
#include <vector>

#include "cluster/barrier.hpp"
#include "core/fpu.hpp"
#include "core/frep.hpp"
#include "core/icache.hpp"
#include "core/perf_counters.hpp"
#include "isa/program.hpp"
#include "mem/tcdm.hpp"
#include "ssr/ssr_unit.hpp"

namespace saris {

inline constexpr u32 kBranchPenaltyCycles = 2;

class Core {
 public:
  Core(u32 id, Tcdm& tcdm, Barrier& barrier);

  /// Load `p` (at most kMaxProgramInstrs instructions) and size the per-pc
  /// tables for it. Aborts on a longer program, or once the core has ticked.
  void load_program(Program p);

  /// Advance one cycle (SSR collect -> FPU -> sequencer -> integer step ->
  /// SSR issue). The cluster arbitrates the TCDM afterwards. A core with
  /// nothing in flight takes the same path; each subsystem's own idle
  /// checks keep it cheap.
  void tick(Cycle now);

  bool halted() const { return perf_.halted; }

  u32 id() const { return id_; }
  /// Current program counter (diagnostics: verification-miss reports print
  /// a disassembly window around the failing core's final pc).
  u32 pc() const { return pc_; }
  CorePerf& perf() { return perf_; }
  const CorePerf& perf() const { return perf_; }
  /// FPU stall cycles by program pc, one entry per instruction.
  const std::vector<PcStalls>& pc_stalls() const { return fpu_.pc_stalls(); }
  /// Every stream launch of this run, in launch order.
  const std::vector<StreamLaunch>& launches() const { return launches_; }
  SsrUnit& ssr() { return ssr_; }
  ICache& icache() { return icache_; }
  const Program& program() const { return prog_; }

  // Architectural state access (tests, runtime argument passing).
  u32 xreg(u8 i) const { return xregs_[i]; }
  void set_xreg(u8 i, u32 v) {
    if (i != 0) xregs_[i] = v;
  }
  double freg(u8 i) const { return fregs_[i]; }
  void set_freg(u8 i, double v) { fregs_[i] = v; }

 private:
  /// What the integer step waits for before it fetches again (see the
  /// file comment).
  enum class Wait : u8 {
    kNone,
    kBarrier,  ///< the barrier's release
    kCycles,   ///< stall_cycles_ more branch or I$ refill cycles
    kLoad,     ///< the integer load's response on int_port_
    kOffload,  ///< the FREP sequencer to finish or an FPU queue slot
    kScfg,     ///< stream lane wait_lane_ to go idle
  };

  void int_step(Cycle now);
  /// One kSys instruction; false when it stalled (or halted) and must not
  /// retire.
  bool sys_step(const Instr& in, Cycle now);
  /// The stall tests, shared by an instruction's first attempt and its
  /// wait: each books one stall cycle and returns true while the reason
  /// holds. An FP offload waits while the sequencer replays or the FPU
  /// queue is full; an scfgwi waits while its lane is busy.
  bool offload_stalls();
  bool scfg_stalls(u32 lane);

  u32 id_;
  Tcdm& tcdm_;
  Barrier& barrier_;

  Program prog_;
  /// decode_fp_op of each FP instruction of prog_, by pc (other pcs hold
  /// an unused default entry). Filled by load_program.
  std::vector<FpOp> fp_ops_;
  std::vector<StreamLaunch> launches_;
  u32 pc_ = 0;

  std::array<u32, kNumXRegs> xregs_{};
  std::array<double, kNumFRegs> fregs_{};

  SsrUnit ssr_;
  CorePerf perf_;
  FpSubsystem fpu_;
  FrepSequencer seq_;
  ICache icache_;

  u32 int_port_;
  bool int_store_wait_ = false;  ///< a write ack is owed on the port
  XReg int_load_rd_{};
  u32 int_load_size_ = 4;

  u32 stall_cycles_ = 0;
  Wait wait_ = Wait::kNone;
  u32 wait_lane_ = 0;  ///< the busy lane an scfgwi waits for
  i64 icache_paid_pc_ = -1;
};

}  // namespace saris
