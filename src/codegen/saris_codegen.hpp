// SARIS code generator (the paper's primary contribution, §2.1):
//  1. map all grid loads of the point loop to indirect stream reads,
//  2. partition them between the two indirect SRs (pair operands split
//     across SR0/SR1 so one fadd consumes both; single reads alternate),
//  3. map the output store to the affine SR2 (one launch per tile) and, for
//     register-bound codes, stream the coefficient table through SR1,
//  4. fix a point-loop schedule; its stream-read order defines the static
//     per-row index arrays, which are relaunched each row with the row's
//     base address.
// Complementary optimizations (§2.2): x-unrolling with round-robin op
// interleaving, reassociation into accumulator chains, FREP hardware loops.
#pragma once

#include <array>
#include <vector>

#include "codegen/layout.hpp"
#include "codegen/options.hpp"
#include "codegen/regalloc.hpp"
#include "codegen/schedule.hpp"
#include "isa/program.hpp"

namespace saris {

/// Integer register holding the output pointer when the output store goes
/// through the FP LSU (SR2 coefficient-spill mode). Fixed so the lowered
/// body (built without a register pool) and emit() agree.
inline constexpr XReg kSarisOutPtr = XReg{13};

class SarisCodegen {
 public:
  explicit SarisCodegen(const StencilCode& sc, CodegenOptions opt = {});

  // Chosen configuration (for tests / reports).
  u32 unroll() const { return unroll_; }
  bool use_frep() const { return use_frep_; }
  u32 stagger() const { return stagger_; }
  bool stream_coeffs() const { return stream_coeffs_; }
  /// Coefficients streamed through SR2 as a wrapping affine read (with the
  /// output store moved to the FP LSU); 0 when all coefficients are
  /// register-resident.
  u32 spill_sr2() const { return spill_sr2_; }
  /// First spilled tap-coefficient index (valid when spill_sr2() > 0).
  u32 spilled_from() const;
  const Schedule& schedule() const { return sched_; }

  /// Index-array contents for one core (pop order over one full row).
  std::array<std::vector<u16>, 2> idx_values(u32 core) const;

  /// Emit the per-core program against a concrete layout.
  Program emit(u32 core, const KernelLayout& lay) const;

 private:
  struct ReadRec {
    u32 lane = 0;
    bool is_coeff = false;
    i32 tap = -1;       ///< tap index (for tap reads)
    u32 coeff = 0;      ///< coefficient index (for coefficient reads)
    u32 instance = 0;   ///< unrolled instance within the block
  };
  struct BodyInstr {
    Instr instr;
    std::vector<ReadRec> reads;
  };
  struct RowPlan {
    std::vector<BodyInstr> body;      ///< one unrolled x-block (FP only)
    std::vector<BodyInstr> epilogue;  ///< remainder points
    u32 blocks = 0;
    u32 remainder = 0;
    std::array<std::vector<u16>, 2> idx;  ///< index arrays (idx_values)
  };

  RowPlan build_row_plan(u32 core) const;
  u16 idx_of(const ReadRec& r, u32 x_pt) const;
  u32 x_of(const CoreWork& w, u32 point_index) const;

  /// Lower the schedule for `count` instances starting at unrolled-instance
  /// offset `first_instance`, merged round-robin.
  std::vector<BodyInstr> lower_instances(u32 count, u32 first_instance) const;

  const StencilCode& sc_;
  CodegenOptions opt_;
  Schedule sched_;
  u32 unroll_ = 1;
  bool use_frep_ = true;
  u32 stagger_ = 1;  ///< FREP register-stagger depth (1 = off)
  bool stream_coeffs_ = false;
  u32 spill_sr2_ = 0;

  // Register plan (fixed across cores). With staggering, each logical
  // per-instance register occupies `stagger_` consecutive physical regs.
  u32 resident_coeffs_ = 0;  ///< number of coefficients held in f-regs
  u8 coeff_reg0_ = 3;        ///< first coefficient register
  u8 acc_reg0_ = 0;          ///< first per-instance register
  u32 logical_per_instance_ = 0;
  u32 inst_stride_ = 0;  ///< physical regs per instance slot
};

}  // namespace saris
