#include "codegen/base_codegen.hpp"

#include <algorithm>

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
  const i32 const_coeff =
      sc_.const_term ? static_cast<i32>(sc_.n_coeffs) - 1 : -1;
  std::vector<std::vector<Instr>> per_inst(count);

  for (u32 slot = 0; slot < count; ++slot) {
    // `instance` equals `slot` here: epilogue pointers have already been
    // advanced past the unrolled blocks, so offsets restart at 0.
    std::vector<Instr>& seq = per_inst[slot];
    u8 inst_base = static_cast<u8>(inst_reg0_ + slot * regs_per_instance_);
    u32 stage_next = 0;
    std::vector<u8> tmp_fifo;
    u32 tmp_next = 0;

    auto acc = [&](i32 c) { return f(static_cast<u8>(inst_base + c)); };
    auto stage_alloc = [&]() {
      u8 r = static_cast<u8>(inst_base + sched_.chains + sched_.tmp_regs +
                             (stage_next % kStagingRegs));
      ++stage_next;
      return f(r);
    };
    auto tmp_alloc = [&]() {
      u8 r = static_cast<u8>(inst_base + sched_.chains +
                             (tmp_next % std::max<u32>(1, sched_.tmp_regs)));
      ++tmp_next;
      tmp_fifo.push_back(r);
      return f(r);
    };
    auto tmp_pop = [&]() {
      SARIS_CHECK(!tmp_fifo.empty(), "pair consume without producer");
      u8 r = tmp_fifo.front();
      tmp_fifo.erase(tmp_fifo.begin());
      return f(r);
    };

    auto tap_src = [&](i32 tap) {
      const Tap& t = sc_.taps[static_cast<u32>(tap)];
      auto it = ptrs.find(PtrKey{t.array, t.dz});
      SARIS_CHECK(it != ptrs.end(), "missing pointer register");
      i32 offs = (t.dy * static_cast<i32>(sc_.tile_nx) + t.dx +
                  static_cast<i32>(slot * interleave_x(sc_))) *
                 static_cast<i32>(kWordBytes);
      FReg s = stage_alloc();
      seq.push_back(fld_i(s, it->second, offs));
      return s;
    };
    auto coeff_src = [&](i32 c) {
      SARIS_CHECK(c >= 0, "missing coefficient");
      if (static_cast<u32>(c) < resident_coeffs_) {
        return f(static_cast<u8>(coeff_reg0_ + c));
      }
      FReg s = stage_alloc();
      seq.push_back(fld_i(s, cb, 8 * c));
      return s;
    };

    for (const Step& st : sched_.steps) {
      Op op = lower_step_op(st.kind);
      FReg dst = acc(st.kind == StepKind::kCombine || st.final_out
                         ? 0
                         : st.chain);
      switch (st.kind) {
        case StepKind::kSeedMulTap:
          dst = st.final_out ? acc(0) : acc(st.chain);
          seq.push_back(fp3(op, dst, coeff_src(st.coeff), tap_src(st.tap_a)));
          break;
        case StepKind::kSeedMulTapConst: {
          FReg creg = coeff_src(const_coeff);
          dst = st.final_out ? acc(0) : acc(st.chain);
          seq.push_back(
              fp4(op, dst, coeff_src(st.coeff), tap_src(st.tap_a), creg));
          break;
        }
        case StepKind::kFmaTap:
          dst = acc(st.chain);
          seq.push_back(
              fp4(op, dst, coeff_src(st.coeff), tap_src(st.tap_a), dst));
          break;
        case StepKind::kSeedAddTaps:
          dst = acc(st.chain);
          seq.push_back(fp3(op, dst, tap_src(st.tap_a), tap_src(st.tap_b)));
          break;
        case StepKind::kAddTap:
          dst = acc(st.chain);
          seq.push_back(fp3(op, dst, dst, tap_src(st.tap_a)));
          break;
        case StepKind::kPairAdd:
          seq.push_back(
              fp3(op, tmp_alloc(), tap_src(st.tap_a), tap_src(st.tap_b)));
          break;
        case StepKind::kSeedMulPair:
          dst = acc(st.chain);
          seq.push_back(fp3(op, dst, coeff_src(st.coeff), tmp_pop()));
          break;
        case StepKind::kFmaPair:
          dst = acc(st.chain);
          seq.push_back(
              fp4(op, dst, coeff_src(st.coeff), tmp_pop(), acc(st.chain)));
          break;
        case StepKind::kCombine:
          seq.push_back(fp3(op, acc(0), acc(0), acc(st.chain)));
          break;
        case StepKind::kScale:
          seq.push_back(fp3(op, acc(0), coeff_src(st.coeff), acc(0)));
          break;
        case StepKind::kSubTap:
          seq.push_back(fp3(op, acc(0), acc(0), tap_src(st.tap_a)));
          break;
      }
      if (st.final_out) {
        seq.push_back(fsd_i(acc(0), out_ptr,
                            static_cast<i32>(slot * interleave_x(sc_) *
                                             kWordBytes)));
      }
    }
  }

  std::vector<Instr> merged;
  if (spilled_coeffs() > 0) {
    // Register-bound: with the file exhausted by resident coefficients the
    // compiler cannot extend live ranges to schedule across iterations, so
    // instances stay in expression order (Listing 1b) and the short
    // load-use / accumulation distances surface as dependency stalls --
    // the paper's base-IPC drop to ~0.69 on box3d1r/j3d27pt.
    for (const auto& s : per_inst) {
      merged.insert(merged.end(), s.begin(), s.end());
    }
    return merged;
  }
  // Register-rich: round-robin interleave across instances (what -Ofast's
  // scheduler achieves with spare registers).
  std::size_t longest = 0;
  for (const auto& s : per_inst) longest = std::max(longest, s.size());
  for (std::size_t i = 0; i < longest; ++i) {
    for (u32 u = 0; u < count; ++u) {
      if (i < per_inst[u].size()) merged.push_back(per_inst[u][i]);
    }
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
