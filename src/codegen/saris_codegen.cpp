#include "codegen/saris_codegen.hpp"

#include "common/log.hpp"
#include "core/frep.hpp"
#include "isa/builder.hpp"
#include "ssr/ssr_config.hpp"

namespace saris {

SarisCodegen::SarisCodegen(const StencilCode& sc, CodegenOptions opt)
    : sc_(sc), opt_(opt) {
  // Chain count: start from the default, and for register-hungry codes
  // shrink to two (the minimum that hides the FPU latency) before giving
  // up register residency of the coefficients.
  u32 chains = opt.chains != 0 ? opt.chains : default_chains(sc);
  for (;; --chains) {
    sched_ = make_schedule(sc, chains);
    u32 ops_pp = sched_.ops();
    logical_per_instance_ = sched_.chains + sched_.tmp_regs;

    // Configuration heuristic (paper §2.2/2.3: unroll up to 4x iff
    // beneficial, FREP where possible):
    //  - short schedules: multi-point FREP bodies, interleaving hides
    //    latency;
    //  - mid-size schedules (fit FREP at U=1): single-point body with
    //    register staggering to break cross-iteration dependences;
    //  - long schedules: no FREP; two-point software unroll.
    if (opt.unroll != 0) {
      unroll_ = opt.unroll;
      use_frep_ = opt.use_frep && ops_pp * unroll_ <= kFrepBufferDepth;
      stagger_ = (use_frep_ && unroll_ == 1) ? 3 : 1;
    } else if (opt.use_frep && 2 * ops_pp <= kFrepBufferDepth) {
      // Two-point bodies suffice to hide the FPU latency and divide the
      // row-point counts evenly; deeper unrolls only grow the epilogue.
      unroll_ = 2;
      use_frep_ = true;
      stagger_ = 1;
    } else if (opt.use_frep && ops_pp <= kFrepBufferDepth) {
      unroll_ = 1;
      use_frep_ = true;
      stagger_ = 3;
    } else {
      unroll_ = 2;
      use_frep_ = false;
      stagger_ = 1;
    }

    auto fits = [&](u32 resident) {
      return resident + unroll_ * logical_per_instance_ * stagger_ <=
             kFRegBudget;
    };

    if (opt.stream_coeffs == 1) {
      // Ablation mode: stream the whole coefficient table through SR1.
      SARIS_CHECK(sc.sched == ScheduleClass::kFmaChain,
                  "coefficient streaming is implemented for fma-chain codes");
      stream_coeffs_ = true;
      resident_coeffs_ = sc.const_term ? 1 : 0;
      SARIS_CHECK(fits(resident_coeffs_),
                  "saris register plan infeasible for " << sc.name);
      break;
    }

    while (!fits(sc.n_coeffs) && stagger_ > 1) --stagger_;
    while (!fits(sc.n_coeffs) && opt.unroll == 0 && unroll_ > 1) --unroll_;
    if (fits(sc.n_coeffs)) {
      resident_coeffs_ = sc.n_coeffs;
      break;
    }
    if (chains > 2 && opt.chains == 0) continue;  // retry with fewer chains

    // Still over budget: keep as many coefficients resident as fit and
    // stream the remainder through SR2 as a wrapping affine read (SARIS
    // step 3: remaining SRs take register-exhausting coefficient loads);
    // the output store moves to the FP LSU. Spilled tap coefficients are
    // the highest-indexed ones, consumed in increasing order per point,
    // which is exactly the order the wrapping affine stream delivers.
    SARIS_CHECK(sc.sched == ScheduleClass::kFmaChain,
                "SR2 coefficient spill is implemented for fma-chain codes");
    u32 fixed = unroll_ * logical_per_instance_ * stagger_;
    SARIS_CHECK(fixed < kFRegBudget,
                "saris register plan infeasible for " << sc.name);
    resident_coeffs_ = kFRegBudget - fixed;
    spill_sr2_ = sc.n_coeffs - resident_coeffs_;
    SARIS_CHECK(!use_frep_,
                "SR2 coefficient spill requires a non-FREP x-loop");
    SARIS_CHECK(unroll_ == 1,
                "SR2 coefficient spill requires unroll 1 (stream order)");
    break;
  }

  coeff_reg0_ = 3;
  acc_reg0_ = static_cast<u8>(3 + resident_coeffs_);
  inst_stride_ = logical_per_instance_ * stagger_;
}

u32 SarisCodegen::spilled_from() const {
  // Spilled tap-coefficient indices are [spilled_from(), n_coeffs); with a
  // constant term, the constant (index n_coeffs-1) stays resident and the
  // spill window shifts down by one.
  SARIS_CHECK(spill_sr2_ > 0, "no spill configured");
  return sc_.n_coeffs - spill_sr2_ - (sc_.const_term ? 1 : 0);
}

u32 SarisCodegen::x_of(const CoreWork& w, u32 point_index) const {
  return sc_.radius + w.phase_x + point_index * interleave_x(sc_);
}

u16 SarisCodegen::idx_of(const ReadRec& r, u32 x_pt) const {
  if (r.is_coeff) {
    return static_cast<u16>(r.coeff);
  }
  const Tap& t = sc_.taps[static_cast<u32>(r.tap)];
  u32 rz = sc_.dims == 3 ? sc_.radius : 0;
  i64 row_e = sc_.tile_nx;
  i64 plane_e = static_cast<i64>(sc_.tile_nx) * sc_.tile_ny;
  i64 v = (t.dz + static_cast<i64>(rz)) * plane_e +
          (t.dy + static_cast<i64>(sc_.radius)) * row_e +
          (static_cast<i64>(x_pt) + t.dx);
  if (t.array == 1) v += static_cast<i64>(sc_.tile_points());
  SARIS_CHECK(v >= 0 && v < 65536,
              "indirect index " << v << " outside 16-bit range for "
                                << sc_.name);
  return static_cast<u16>(v);
}

std::vector<SarisCodegen::BodyInstr> SarisCodegen::lower_instances(
    u32 count, u32 first_instance) const {
  // Taps and streamed coefficients are stream registers, each read recorded
  // on the op that pops it; the point's value goes to the SR2 write stream,
  // or with an SR2 coefficient spill to its register and an fsd against
  // the out pointer.
  struct Sources {
    using Item = BodyInstr;
    const SarisCodegen& g;
    u32 first_instance;
    std::vector<u32> lone_taps;  ///< single-tap reads so far, per instance
    std::vector<ReadRec> reads;

    FReg tap(u32 u, const Step& st, i32 tap, std::vector<BodyInstr>&) {
      // A two-tap op reads tap_a on SR0 and tap_b on SR1; lone taps
      // alternate, or stay on SR0 while SR1 streams coefficients.
      u32 lane = st.tap_b >= 0      ? (tap == st.tap_b ? 1u : 0u)
                 : g.stream_coeffs_ ? 0u
                                    : lone_taps[u]++ % 2;
      reads.push_back(ReadRec{lane, false, tap, 0, first_instance + u});
      return lane == 0 ? kFt0 : kFt1;
    }
    FReg coeff(u32 u, i32 c, std::vector<BodyInstr>&) {
      // The constant term occupies the last resident coefficient slot.
      if (c == g.sched_.const_coeff) {
        return f(static_cast<u8>(g.coeff_reg0_ + g.resident_coeffs_ - 1));
      }
      if (g.stream_coeffs_) {
        reads.push_back(ReadRec{1, true, -1, static_cast<u32>(c),
                                first_instance + u});
        return kFt1;
      }
      if (g.spill_sr2_ > 0 && static_cast<u32>(c) >= g.spilled_from()) {
        return kFt2;  // wrapping affine coefficient stream (no index)
      }
      return f(static_cast<u8>(g.coeff_reg0_ + c));
    }
    void push(u32 u, Instr in, bool final_out,
              std::vector<BodyInstr>& seq) {
      const bool out_via_lsu = g.spill_sr2_ > 0;
      if (final_out && !out_via_lsu) in.frd = kFt2;
      seq.push_back(BodyInstr{in, std::move(reads)});
      reads.clear();
      if (final_out && out_via_lsu) {
        Instr st;
        st.op = Op::kFsd;
        st.frs2 = in.frd;
        st.rs1 = kSarisOutPtr;
        st.imm = static_cast<i32>(u * interleave_x(g.sc_) * kWordBytes);
        seq.push_back(BodyInstr{st, {}});
      }
    }
  } src{*this, first_instance, std::vector<u32>(count, 0), {}};

  // Logical register L lives at inst_base + L*stagger_: the FREP stagger
  // offsets (+0..stagger-1) rotate through the run of physical registers
  // reserved for each logical one.
  return lower_points(sched_, 0, count,
                      PointRegs{acc_reg0_, inst_stride_, stagger_}, src);
}

SarisCodegen::RowPlan SarisCodegen::build_row_plan(u32 core) const {
  CoreWork w = core_work(sc_, core);
  SARIS_CHECK(w.pts_row > 0 && w.rows > 0,
              "core " << core << " has no work for " << sc_.name);
  RowPlan p;
  p.blocks = w.pts_row / unroll_;
  p.remainder = w.pts_row % unroll_;
  if (p.blocks > 0) p.body = lower_instances(unroll_, 0);
  if (p.remainder > 0) {
    p.epilogue = lower_instances(p.remainder, p.blocks * unroll_);
  }
  // Stream-read order over one full row: the body once per block, then
  // the epilogue.
  for (u32 b = 0; b < p.blocks; ++b) {
    for (const BodyInstr& bi : p.body) {
      for (const ReadRec& r : bi.reads) {
        u32 point = b * unroll_ + r.instance;
        p.idx[r.lane].push_back(idx_of(r, x_of(w, point)));
      }
    }
  }
  for (const BodyInstr& bi : p.epilogue) {
    for (const ReadRec& r : bi.reads) {
      p.idx[r.lane].push_back(idx_of(r, x_of(w, r.instance)));
    }
  }
  return p;
}

std::array<std::vector<u16>, 2> SarisCodegen::idx_values(u32 core) const {
  return build_row_plan(core).idx;
}

Program SarisCodegen::emit(u32 core, const KernelLayout& lay) const {
  CoreWork w = core_work(sc_, core);
  RowPlan plan = build_row_plan(core);
  SARIS_CHECK(lay.core_idx.size() > core, "layout lacks core index arrays");
  for (u32 l = 0; l < 2; ++l) {
    SARIS_CHECK(lay.core_idx[core][l].count == plan.idx[l].size(),
                "layout/codegen index count mismatch on lane " << l);
  }

  u32 rz = sc_.dims == 3 ? sc_.radius : 0;
  u32 row_e = sc_.tile_nx;
  u32 plane_e = sc_.tile_nx * sc_.tile_ny;
  u32 x0 = sc_.radius + w.phase_x;
  u32 y0 = sc_.radius + w.phase_y;
  u32 z0 = rz + w.phase_z;

  ProgramBuilder b;
  XRegPool xp = make_xreg_pool();
  XReg tv = xp.alloc();    // scratch for config values
  XReg t0 = xp.alloc();    // row launch base
  XReg tz = xp.alloc();    // plane base (3D)
  XReg ycnt = xp.alloc();
  XReg zcnt = xp.alloc();
  XReg rep = xp.alloc();   // frep repetitions / x-block counter
  XReg cb = xp.alloc();    // coefficient table base
  XReg xblk = xp.alloc();  // non-frep block loop counter
  XReg out_ptr = xp.alloc();  // output pointer (SR2 coefficient-spill mode)
  SARIS_CHECK(out_ptr == kSarisOutPtr, "out-pointer register drifted");

  b.ssr_enable();
  auto cfg = [&](u32 lane, u32 word, u32 val) {
    b.li(tv, static_cast<i32>(val));
    b.scfgwi(tv, lane, word);
  };

  // Indirect lane static configuration.
  for (u32 l = 0; l < 2; ++l) {
    if (plan.idx[l].empty()) continue;
    cfg(l, kSsrIdxBase, lay.core_idx[core][l].addr);
    cfg(l, kSsrIdxCount, static_cast<u32>(plan.idx[l].size()));
    cfg(l, kSsrIdxSize, 2);
  }

  Addr out0 = lay.output +
              (static_cast<Addr>(z0) * plane_e + y0 * row_e + x0) * kWordBytes;
  if (spill_sr2_ == 0) {
    // Affine write stream over this core's interior points (one launch per
    // tile — SARIS step 3).
    cfg(2, kSsrBound0, w.pts_row);
    cfg(2, kSsrStride0, w.step_x * kWordBytes);
    cfg(2, kSsrBound1, w.rows);
    cfg(2, kSsrStride1, w.step_y * lay.row_bytes);
    cfg(2, kSsrBound2, w.planes);
    cfg(2, kSsrStride2, w.step_z * lay.plane_bytes);
    cfg(2, kSsrBound3, 1);
    cfg(2, kSsrStride3, 0);
    b.li(tv, static_cast<i32>(out0));
    b.scfgwi(tv, 2, kSsrLaunchWrite);
  } else {
    // SR2 streams the spilled coefficients: a wrapping affine read that
    // cycles the spill window once per point, launched once per tile. The
    // output store goes through the FP LSU via out_ptr instead.
    cfg(2, kSsrBound0, spill_sr2_);
    cfg(2, kSsrStride0, kWordBytes);
    cfg(2, kSsrBound1, w.pts_row);
    cfg(2, kSsrStride1, 0);
    cfg(2, kSsrBound2, w.rows);
    cfg(2, kSsrStride2, 0);
    cfg(2, kSsrBound3, w.planes);
    cfg(2, kSsrStride3, 0);
    Addr spill0 =
        lay.coeffs_for(core) + static_cast<Addr>(spilled_from()) * kWordBytes;
    b.li(tv, static_cast<i32>(spill0));
    b.scfgwi(tv, 2, kSsrLaunchRead);
    b.li(out_ptr, static_cast<i32>(out0));
  }

  // Resident coefficients: tap coefficients 0..resident-1 (spilled window
  // excluded), with the constant term in the last resident slot.
  b.li(cb, static_cast<i32>(lay.coeffs_for(core)));
  if (stream_coeffs_) {
    if (sc_.const_term) {
      b.fld(f(coeff_reg0_), cb, static_cast<i32>(8 * (sc_.n_coeffs - 1)));
    }
  } else {
    u32 resident_taps =
        resident_coeffs_ - ((sc_.const_term && spill_sr2_ > 0) ? 1 : 0);
    for (u32 i = 0; i < resident_taps; ++i) {
      b.fld(f(static_cast<u8>(coeff_reg0_ + i)), cb,
            static_cast<i32>(8 * i));
    }
    if (sc_.const_term && spill_sr2_ > 0) {
      b.fld(f(static_cast<u8>(coeff_reg0_ + resident_coeffs_ - 1)), cb,
            static_cast<i32>(8 * (sc_.n_coeffs - 1)));
    }
  }

  if (use_frep_ && plan.blocks > 0) {
    b.li(rep, static_cast<i32>(plan.blocks));
  }

  // Row-base address: element (z - rz, y - r, 0) of input array 0.
  Addr base0 = lay.inputs[0] + static_cast<Addr>(w.phase_y) * lay.row_bytes +
               static_cast<Addr>(w.phase_z) * lay.plane_bytes;
  bool threed = sc_.dims == 3;
  if (threed) {
    b.li(tz, static_cast<i32>(base0));
    b.li(zcnt, static_cast<i32>(w.planes));
    b.bind("zloop");
    b.mv(t0, tz);
  } else {
    b.li(t0, static_cast<i32>(base0));
  }
  b.li(ycnt, static_cast<i32>(w.rows));
  b.bind("yloop");

  // Launch the indirect reads for this row (SARIS step 1: SRIR with the
  // row base; index arrays stay the same).
  if (!plan.idx[0].empty()) b.scfgwi(t0, 0, kSsrLaunchIndirect);
  if (!plan.idx[1].empty()) {
    b.scfgwi(stream_coeffs_ ? cb : t0, 1, kSsrLaunchIndirect);
  }

  const bool out_via_lsu = spill_sr2_ > 0;
  const i32 block_bytes =
      static_cast<i32>(unroll_ * w.step_x * kWordBytes);
  if (plan.blocks > 0) {
    if (use_frep_) {
      b.frep(rep, static_cast<i32>(plan.body.size()), stagger_, acc_reg0_);
      // ProgramBuilder::build checks the body against the opcode table.
      for (const BodyInstr& bi : plan.body) b.raw(bi.instr);
    } else if (plan.blocks == 1) {
      for (const BodyInstr& bi : plan.body) b.raw(bi.instr);
      if (out_via_lsu) b.addi(out_ptr, out_ptr, block_bytes);
    } else {
      b.li(xblk, static_cast<i32>(plan.blocks));
      b.bind("xloop");
      for (const BodyInstr& bi : plan.body) b.raw(bi.instr);
      if (out_via_lsu) b.addi(out_ptr, out_ptr, block_bytes);
      b.addi(xblk, xblk, -1);
      b.bne(xblk, kZero, "xloop");
    }
  }
  for (const BodyInstr& bi : plan.epilogue) b.raw(bi.instr);

  b.addi(t0, t0, static_cast<i32>(w.step_y * lay.row_bytes));
  if (out_via_lsu) {
    add_disp(b, out_ptr,
             static_cast<i32>(w.step_y * lay.row_bytes) -
                 static_cast<i32>(plan.blocks) * block_bytes);
  }
  b.addi(ycnt, ycnt, -1);
  b.bne(ycnt, kZero, "yloop");
  if (threed) {
    add_disp(b, tz, static_cast<i32>(w.step_z * lay.plane_bytes));
    if (out_via_lsu) {
      add_disp(b, out_ptr,
               static_cast<i32>(w.step_z * lay.plane_bytes) -
                   static_cast<i32>(w.rows) *
                       static_cast<i32>(w.step_y * lay.row_bytes));
    }
    b.addi(zcnt, zcnt, -1);
    b.bne(zcnt, kZero, "zloop");
  }
  b.ssr_disable();
  b.barrier();
  b.halt();
  return b.build();
}

}  // namespace saris
