// An offloaded FP op as the FPU issues it, and the one decoder that builds
// it from an instruction.
//
// Core::load_program decodes every FP instruction of the program once into
// a per-pc table of these entries and writes each entry's pc. The fetch
// path copies a pc's entry into the FPU queue slot and writes only the
// fld/fsd address; the FREP sequencer captures the entries the fetch pass
// enqueued, staggers one copy of the body per register offset once the
// capture completes, and replays an op by copying its pre-staggered entry
// into a queue slot. So no offloaded or replayed op reads a kOpTable row
// or a slot mask again, and a replayed op still carries its body pc, to
// which the FPU charges its stalls.
#pragma once

#include <array>
#include <limits>

#include "isa/instr.hpp"

namespace saris {

/// FpOp::pc is 16 bits wide, so Core::load_program rejects longer programs.
inline constexpr u32 kMaxProgramInstrs = 1u << 16;

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

/// The kOpTable facts FPU issue reads, in one 16-byte queue entry.
struct FpOp {
  Addr target = 0;  ///< fld/fsd address, written by the Core at offload
  Op op = Op::kNop;
  FReg dst{};
  std::array<FReg, 3> src{};  ///< FP sources in operand order (f_reads)
  u8 nsrc = 0;
  MemDir mem = MemDir::kNone;  ///< a load or store moves one kWordBytes word
  u16 pc = 0;    ///< program index, written by Core::load_program
  u8 lat = 0;    ///< fpu_latency(op)
  u8 flops = 0;  ///< flops_of(op); nonzero marks useful FPU work

  /// Every FP op but a store writes `dst` (checked against f_write below).
  bool writes_dst() const { return mem != MemDir::kStore; }
};
static_assert(sizeof(FpOp) == 16);
static_assert(kMaxProgramInstrs - 1 <= std::numeric_limits<u16>::max());

static_assert(
    [] {
      for (const OpDesc& d : kOpTable) {
        if (d.is_fp() && d.mem != MemDir::kNone && d.mem_bytes != kWordBytes) {
          return false;
        }
      }
      return true;
    }(),
    "FpOp drops mem_bytes: every FP load and store moves one 64-bit word");

static_assert(
    [] {
      for (const OpDesc& d : kOpTable) {
        if (d.is_fp() && d.f_write != (d.mem != MemDir::kStore)) {
          return false;
        }
      }
      return true;
    }(),
    "FpOp::writes_dst assumes every FP op but a store writes frd");

/// Decode FP instruction `in` (aborts on any other op). The target and pc
/// are left 0; the Core writes the pc at load and a load's or store's
/// address at offload.
FpOp decode_fp_op(const Instr& in);

}  // namespace saris
