// An offloaded FP op as the FPU issues it, and the one decoder that builds
// it from an instruction.
//
// Core::load_program decodes every FP instruction of the program once into
// a per-pc table of these entries. The fetch path copies a pc's entry into
// the FPU queue slot and writes only the fld/fsd address; the FREP
// sequencer captures the entries the fetch pass enqueued and replays each by
// copying it into a queue slot and staggering its registers there. So no
// offloaded or replayed op reads a kOpTable row or a slot mask again.
#pragma once

#include <array>

#include "isa/instr.hpp"

namespace saris {

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
  MemDir mem = MemDir::kNone;
  u8 mem_bytes = 0;
  u8 lat = 0;    ///< fpu_latency(op)
  u8 flops = 0;  ///< flops_of(op); nonzero marks useful FPU work

  /// Every FP op but a store writes `dst` (checked against f_write below).
  bool writes_dst() const { return mem != MemDir::kStore; }
};
static_assert(sizeof(FpOp) == 16);

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

/// Decode FP instruction `in` (aborts on any other op). The target is left
/// 0; the Core writes a load's or store's address at offload.
FpOp decode_fp_op(const Instr& in);

}  // namespace saris
