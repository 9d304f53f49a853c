// Optimized RV32G baseline code generator (the paper's `base` variants).
//
// Lowers the same point schedule as the SARIS generator, but through plain
// loads/stores: per-(array, z-offset) pointer registers with immediate
// offsets (Listing 1b style), x-unrolling with round-robin interleaving,
// bounded reassociation, and a register-budget model that keeps stencil
// coefficients resident while they fit — and spills them to per-use reloads
// when they do not (the register-bound behaviour of box3d1r/j3d27pt that
// drives the paper's speedup trend).
#pragma once

#include <map>
#include <vector>

#include "codegen/layout.hpp"
#include "codegen/options.hpp"
#include "codegen/regalloc.hpp"
#include "codegen/schedule.hpp"
#include "isa/program.hpp"

namespace saris {

class BaseCodegen {
 public:
  explicit BaseCodegen(const StencilCode& sc, CodegenOptions opt = {});

  u32 unroll() const { return unroll_; }
  u32 spilled_coeffs() const {
    return sc_.n_coeffs - resident_coeffs_;
  }
  const Schedule& schedule() const { return sched_; }

  Program emit(u32 core, const KernelLayout& lay) const;

 private:
  /// Pointer-register identifiers: one per (input array, dz) pair actually
  /// referenced by taps, plus the output pointer.
  struct PtrKey {
    u32 array;
    i32 dz;
    bool operator<(const PtrKey& o) const {
      return array != o.array ? array < o.array : dz < o.dz;
    }
  };

  std::vector<Instr> lower_instances(u32 count,
                                     const std::map<PtrKey, XReg>& ptrs,
                                     XReg out_ptr, XReg cb) const;

  const StencilCode& sc_;
  CodegenOptions opt_;
  Schedule sched_;
  u32 unroll_ = 1;
  u32 resident_coeffs_ = 0;
  u8 coeff_reg0_ = 3;
  u8 inst_reg0_ = 0;        ///< first per-instance register
  u32 regs_per_instance_ = 0;
};

}  // namespace saris
