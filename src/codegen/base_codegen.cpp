#include "codegen/base_codegen.hpp"

#include "common/log.hpp"
#include "isa/builder.hpp"

namespace saris {

namespace {

/// Load staging registers per unrolled point instance.
constexpr u32 kStagingRegs = 4;

Instr fld_i(FReg rd, XReg base, i32 offs) {
  Instr in;
  in.op = Op::kFld;
  in.frd = rd;
  in.rs1 = base;
  in.imm = offs;
  SARIS_CHECK(offs >= -2048 && offs <= 2047,
              "baseline load offset " << offs << " exceeds imm12");
  return in;
}

Instr fsd_i(FReg src, XReg base, i32 offs) {
  Instr in;
  in.op = Op::kFsd;
  in.frs2 = src;
  in.rs1 = base;
  in.imm = offs;
  SARIS_CHECK(offs >= -2048 && offs <= 2047,
              "baseline store offset " << offs << " exceeds imm12");
  return in;
}

}  // namespace

BaseCodegen::BaseCodegen(const StencilCode& sc, CodegenOptions opt)
    : sc_(sc), opt_(opt) {
  u32 chains = opt.chains != 0 ? opt.chains : default_chains(sc);
  sched_ = make_schedule(sc, chains);
  regs_per_instance_ = sched_.chains + sched_.tmp_regs + kStagingRegs;

  // Unroll selection mimics the paper's LLVM -Ofast baseline: unroll 4x if
  // coefficients stay resident, else 2x -- accepting coefficient spills
  // (reloaded per use) when the register file is exhausted. This is the
  // "unrolling may exhaust architectural registers and require inefficient
  // stack accesses" behaviour (section 3.1) that slows the register-bound
  // codes' baselines and drives the paper's speedup trend.
  auto fits = [&](u32 u) {
    return sc.n_coeffs + u * regs_per_instance_ <= kFRegBudget;
  };
  if (opt.unroll != 0) {
    unroll_ = opt.unroll;
  } else {
    unroll_ = fits(4) ? 4 : 2;
  }
  if (fits(unroll_)) {
    resident_coeffs_ = sc.n_coeffs;
  } else {
    u32 fixed = unroll_ * regs_per_instance_;
    SARIS_CHECK(fixed < kFRegBudget,
                "baseline register plan infeasible for " << sc.name);
    resident_coeffs_ = kFRegBudget - fixed;
  }
  coeff_reg0_ = 3;
  inst_reg0_ = static_cast<u8>(3 + resident_coeffs_);
  SARIS_CHECK(3 + resident_coeffs_ + unroll_ * regs_per_instance_ <= 32,
              "baseline register plan exceeds the FP register file");
}

std::vector<Instr> BaseCodegen::lower_instances(
    u32 count, const std::map<PtrKey, XReg>& ptrs, XReg out_ptr,
    XReg cb) const {
  // Taps and spilled coefficients are loaded into the instance's staging
  // registers; the point's value is stored through the out pointer.
  // Instance u's offsets are its own x offset in the block: epilogue
  // pointers have already been advanced past the unrolled blocks, so
  // offsets restart at 0.
  struct Sources {
    using Item = Instr;
    const BaseCodegen& g;
    const std::map<PtrKey, XReg>& ptrs;
    XReg out_ptr;
    XReg cb;
    std::vector<u32> staged;  ///< staging registers taken, per instance

    FReg load(u32 u, XReg base, i32 offs, std::vector<Instr>& seq) {
      FReg s = f(static_cast<u8>(
          g.inst_reg0_ + u * g.regs_per_instance_ + g.sched_.chains +
          g.sched_.tmp_regs + staged[u]++ % kStagingRegs));
      seq.push_back(fld_i(s, base, offs));
      return s;
    }
    FReg tap(u32 u, const Step&, i32 tap, std::vector<Instr>& seq) {
      const Tap& t = g.sc_.taps[static_cast<u32>(tap)];
      auto it = ptrs.find(PtrKey{t.array, t.dz});
      SARIS_CHECK(it != ptrs.end(), "missing pointer register");
      return load(u, it->second,
                  (t.dy * static_cast<i32>(g.sc_.tile_nx) + t.dx +
                   static_cast<i32>(u * interleave_x(g.sc_))) *
                      static_cast<i32>(kWordBytes),
                  seq);
    }
    FReg coeff(u32 u, i32 c, std::vector<Instr>& seq) {
      if (static_cast<u32>(c) < g.resident_coeffs_) {
        return f(static_cast<u8>(g.coeff_reg0_ + c));
      }
      return load(u, cb, 8 * c, seq);
    }
    void push(u32 u, const Instr& in, bool final_out,
              std::vector<Instr>& seq) {
      seq.push_back(in);
      if (final_out) {
        seq.push_back(fsd_i(in.frd, out_ptr,
                            static_cast<i32>(u * interleave_x(g.sc_) *
                                             kWordBytes)));
      }
    }
  } src{*this, ptrs, out_ptr, cb, std::vector<u32>(count, 0)};

  const PointRegs regs{inst_reg0_, regs_per_instance_, 1};
  // Register-rich: round-robin interleave across instances (what -Ofast's
  // scheduler achieves with spare registers).
  if (spilled_coeffs() == 0) return lower_points(sched_, 0, count, regs, src);
  // Register-bound: with the file exhausted by resident coefficients the
  // compiler cannot extend live ranges to schedule across iterations, so
  // instances stay in expression order (Listing 1b) and the short
  // load-use / accumulation distances surface as dependency stalls --
  // the paper's base-IPC drop to ~0.69 on box3d1r/j3d27pt.
  std::vector<Instr> merged;
  for (u32 u = 0; u < count; ++u) {
    std::vector<Instr> one = lower_points(sched_, u, 1, regs, src);
    merged.insert(merged.end(), one.begin(), one.end());
  }
  return merged;
}

Program BaseCodegen::emit(u32 core, const KernelLayout& lay) const {
  CoreWork w = core_work(sc_, core);
  SARIS_CHECK(w.pts_row > 0 && w.rows > 0,
              "core " << core << " has no work for " << sc_.name);
  u32 rz = sc_.dims == 3 ? sc_.radius : 0;
  u32 row_e = sc_.tile_nx;
  u32 plane_e = sc_.tile_nx * sc_.tile_ny;
  u32 x0 = sc_.radius + w.phase_x;
  u32 y0 = sc_.radius + w.phase_y;
  u32 z0 = rz + w.phase_z;

  u32 blocks = w.pts_row / unroll_;
  u32 remainder = w.pts_row % unroll_;

  ProgramBuilder b;
  XRegPool xp = make_xreg_pool();
  XReg cb = xp.alloc();
  XReg out_ptr = xp.alloc();
  XReg xlim = xp.alloc();
  XReg ycnt = xp.alloc();
  XReg zcnt = xp.alloc();

  // One pointer register per (array, dz) pair used by the taps.
  std::map<PtrKey, XReg> ptrs;
  for (const Tap& t : sc_.taps) {
    PtrKey k{t.array, t.dz};
    if (!ptrs.count(k)) ptrs[k] = xp.alloc();
  }

  // ---- prologue ----
  b.li(cb, static_cast<i32>(lay.coeffs_for(core)));
  for (u32 i = 0; i < resident_coeffs_; ++i) {
    b.fld(f(static_cast<u8>(coeff_reg0_ + i)), cb, static_cast<i32>(8 * i));
  }
  auto elem_addr = [&](Addr base, u32 x, u32 y, u32 z) {
    return base + (static_cast<Addr>(z) * plane_e + y * row_e + x) *
                      kWordBytes;
  };
  for (auto& [key, reg] : ptrs) {
    Addr base = lay.input_addr(key.array);
    b.li(reg, static_cast<i32>(elem_addr(
                  base, x0, y0, static_cast<u32>(z0 + key.dz))));
  }
  b.li(out_ptr, static_cast<i32>(elem_addr(lay.output, x0, y0, z0)));

  std::vector<Instr> body =
      blocks > 0 ? lower_instances(unroll_, ptrs, out_ptr, cb)
                 : std::vector<Instr>{};
  std::vector<Instr> epilogue =
      remainder > 0 ? lower_instances(remainder, ptrs, out_ptr, cb)
                    : std::vector<Instr>{};

  const i32 block_bytes =
      static_cast<i32>(unroll_ * w.step_x * kWordBytes);
  const i32 row_adv = static_cast<i32>(w.step_y * lay.row_bytes) -
                      static_cast<i32>(blocks) * block_bytes;
  const i32 plane_adv =
      static_cast<i32>(w.step_z * lay.plane_bytes) -
      static_cast<i32>(w.rows) *
          static_cast<i32>(w.step_y * lay.row_bytes);

  auto advance_all = [&](i32 disp) {
    if (disp == 0) return;
    for (auto& [key, reg] : ptrs) add_disp(b, reg, disp);
    add_disp(b, out_ptr, disp);
  };

  bool threed = sc_.dims == 3;
  if (threed) {
    b.li(zcnt, static_cast<i32>(w.planes));
    b.bind("zloop");
  }
  b.li(ycnt, static_cast<i32>(w.rows));
  b.bind("yloop");
  if (blocks > 0) {
    b.addi(xlim, out_ptr, static_cast<i32>(blocks) * block_bytes);
    b.bind("xloop");
    for (const Instr& in : body) b.raw(in);
    for (auto& [key, reg] : ptrs) b.addi(reg, reg, block_bytes);
    b.addi(out_ptr, out_ptr, block_bytes);
    b.bne(out_ptr, xlim, "xloop");
  }
  for (const Instr& in : epilogue) b.raw(in);
  advance_all(row_adv);
  b.addi(ycnt, ycnt, -1);
  b.bne(ycnt, kZero, "yloop");
  if (threed) {
    advance_all(plane_adv);
    b.addi(zcnt, zcnt, -1);
    b.bne(zcnt, kZero, "zloop");
  }
  b.barrier();
  b.halt();
  return b.build();
}

}  // namespace saris
