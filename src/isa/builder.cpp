#include "isa/builder.hpp"

#include "common/log.hpp"
#include "ssr/ssr_config.hpp"

namespace saris {

namespace {
constexpr i32 kImmMin = -2048;
constexpr i32 kImmMax = 2047;
bool fits_imm12(i32 v) { return v >= kImmMin && v <= kImmMax; }
}  // namespace

Instr& ProgramBuilder::emit(Op op) {
  instrs_.push_back(Instr{});
  instrs_.back().op = op;
  return instrs_.back();
}

void ProgramBuilder::bind(const std::string& label) {
  SARIS_CHECK(labels_.count(label) == 0, "label rebound: " << label);
  labels_[label] = here();
}

void ProgramBuilder::addi(XReg rd, XReg rs1, i32 imm) {
  SARIS_CHECK(fits_imm12(imm), "addi imm out of range: " << imm);
  Instr& in = emit(Op::kAddi);
  in.rd = rd;
  in.rs1 = rs1;
  in.imm = imm;
}

void ProgramBuilder::add(XReg rd, XReg rs1, XReg rs2) {
  Instr& in = emit(Op::kAdd);
  in.rd = rd;
  in.rs1 = rs1;
  in.rs2 = rs2;
}

void ProgramBuilder::sub(XReg rd, XReg rs1, XReg rs2) {
  Instr& in = emit(Op::kSub);
  in.rd = rd;
  in.rs1 = rs1;
  in.rs2 = rs2;
}

void ProgramBuilder::lui(XReg rd, i32 imm20) {
  Instr& in = emit(Op::kLui);
  in.rd = rd;
  in.imm = imm20;
}

void ProgramBuilder::slli(XReg rd, XReg rs1, i32 sh) {
  SARIS_CHECK(sh >= 0 && sh < 32, "slli shift out of range");
  Instr& in = emit(Op::kSlli);
  in.rd = rd;
  in.rs1 = rs1;
  in.imm = sh;
}

void ProgramBuilder::srli(XReg rd, XReg rs1, i32 sh) {
  SARIS_CHECK(sh >= 0 && sh < 32, "srli shift out of range");
  Instr& in = emit(Op::kSrli);
  in.rd = rd;
  in.rs1 = rs1;
  in.imm = sh;
}

void ProgramBuilder::andi(XReg rd, XReg rs1, i32 imm) {
  SARIS_CHECK(fits_imm12(imm), "andi imm out of range");
  Instr& in = emit(Op::kAndi);
  in.rd = rd;
  in.rs1 = rs1;
  in.imm = imm;
}

void ProgramBuilder::mul(XReg rd, XReg rs1, XReg rs2) {
  Instr& in = emit(Op::kMul);
  in.rd = rd;
  in.rs1 = rs1;
  in.rs2 = rs2;
}

void ProgramBuilder::li(XReg rd, i32 value) {
  if (fits_imm12(value)) {
    addi(rd, kZero, value);
    return;
  }
  // lui + addi, matching RV32 constant materialization: sign-extend the low
  // 12 bits and compensate in the upper immediate (in wrapping 32-bit
  // arithmetic: value - lo overflows i32 near INT32_MAX).
  i32 lo = ((value & 0xFFF) ^ 0x800) - 0x800;
  i32 hi = static_cast<i32>(static_cast<u32>(value) - static_cast<u32>(lo)) >>
           12;
  lui(rd, hi);
  if (lo != 0) addi(rd, rd, lo);
}

void ProgramBuilder::mv(XReg rd, XReg rs) { addi(rd, rs, 0); }

void ProgramBuilder::lw(XReg rd, XReg base, i32 offs) {
  SARIS_CHECK(fits_imm12(offs), "lw offset out of range: " << offs);
  Instr& in = emit(Op::kLw);
  in.rd = rd;
  in.rs1 = base;
  in.imm = offs;
}

void ProgramBuilder::sw(XReg src, XReg base, i32 offs) {
  SARIS_CHECK(fits_imm12(offs), "sw offset out of range: " << offs);
  Instr& in = emit(Op::kSw);
  in.rs1 = base;
  in.rs2 = src;
  in.imm = offs;
}

void ProgramBuilder::lh(XReg rd, XReg base, i32 offs) {
  SARIS_CHECK(fits_imm12(offs), "lh offset out of range: " << offs);
  Instr& in = emit(Op::kLh);
  in.rd = rd;
  in.rs1 = base;
  in.imm = offs;
}

void ProgramBuilder::sh(XReg src, XReg base, i32 offs) {
  SARIS_CHECK(fits_imm12(offs), "sh offset out of range: " << offs);
  Instr& in = emit(Op::kSh);
  in.rs1 = base;
  in.rs2 = src;
  in.imm = offs;
}

void ProgramBuilder::branch(Op op, XReg rs1, XReg rs2,
                            const std::string& label) {
  Instr& in = emit(op);
  in.rs1 = rs1;
  in.rs2 = rs2;
  fixups_.push_back({here() - 1, label});
}

void ProgramBuilder::beq(XReg a, XReg b, const std::string& l) {
  branch(Op::kBeq, a, b, l);
}
void ProgramBuilder::bne(XReg a, XReg b, const std::string& l) {
  branch(Op::kBne, a, b, l);
}
void ProgramBuilder::blt(XReg a, XReg b, const std::string& l) {
  branch(Op::kBlt, a, b, l);
}
void ProgramBuilder::bge(XReg a, XReg b, const std::string& l) {
  branch(Op::kBge, a, b, l);
}
void ProgramBuilder::j(const std::string& l) {
  branch(Op::kJal, kZero, kZero, l);
}
void ProgramBuilder::halt() { emit(Op::kHalt); }

void ProgramBuilder::fadd_d(FReg rd, FReg a, FReg b) {
  Instr& in = emit(Op::kFaddD);
  in.frd = rd;
  in.frs1 = a;
  in.frs2 = b;
}

void ProgramBuilder::fsub_d(FReg rd, FReg a, FReg b) {
  Instr& in = emit(Op::kFsubD);
  in.frd = rd;
  in.frs1 = a;
  in.frs2 = b;
}

void ProgramBuilder::fmul_d(FReg rd, FReg a, FReg b) {
  Instr& in = emit(Op::kFmulD);
  in.frd = rd;
  in.frs1 = a;
  in.frs2 = b;
}

void ProgramBuilder::fmadd_d(FReg rd, FReg a, FReg b, FReg c) {
  Instr& in = emit(Op::kFmaddD);
  in.frd = rd;
  in.frs1 = a;
  in.frs2 = b;
  in.frs3 = c;
}

void ProgramBuilder::fmsub_d(FReg rd, FReg a, FReg b, FReg c) {
  Instr& in = emit(Op::kFmsubD);
  in.frd = rd;
  in.frs1 = a;
  in.frs2 = b;
  in.frs3 = c;
}

void ProgramBuilder::fnmsub_d(FReg rd, FReg a, FReg b, FReg c) {
  Instr& in = emit(Op::kFnmsubD);
  in.frd = rd;
  in.frs1 = a;
  in.frs2 = b;
  in.frs3 = c;
}

void ProgramBuilder::fmv_d(FReg rd, FReg src) {
  Instr& in = emit(Op::kFsgnjD);
  in.frd = rd;
  in.frs1 = src;
}

void ProgramBuilder::fld(FReg rd, XReg base, i32 offs) {
  SARIS_CHECK(fits_imm12(offs), "fld offset out of range: " << offs);
  Instr& in = emit(Op::kFld);
  in.frd = rd;
  in.rs1 = base;
  in.imm = offs;
}

void ProgramBuilder::fsd(FReg src, XReg base, i32 offs) {
  SARIS_CHECK(fits_imm12(offs), "fsd offset out of range: " << offs);
  Instr& in = emit(Op::kFsd);
  in.frs2 = src;
  in.rs1 = base;
  in.imm = offs;
}

void ProgramBuilder::frep(XReg reps, i32 body_len, u32 stagger,
                          u32 stagger_base) {
  // A negative length wraps to a huge u32 and fails the range test.
  SARIS_CHECK(frep_body_len_ok(static_cast<u32>(body_len)),
              "frep body length " << body_len << " outside [1, "
                                  << kFrepBufferDepth << "]");
  SARIS_CHECK(frep_stagger_ok(stagger),
              "frep stagger " << stagger << " outside [1, " << kFrepMaxStagger
                              << "]");
  SARIS_CHECK(stagger_base <= 32, "bad frep stagger base");
  Instr& in = emit(Op::kFrep);
  in.rs1 = reps;
  in.imm = static_cast<i32>(static_cast<u32>(body_len) | (stagger << 8) |
                            (stagger_base << 16));
}

void ProgramBuilder::scfgwi(XReg value, u32 lane, u32 word) {
  Instr& in = emit(Op::kScfgwi);
  in.rs1 = value;
  in.imm = scfg_imm(lane, word);
}

void ProgramBuilder::ssr_enable() { emit(Op::kSsrEn); }
void ProgramBuilder::ssr_disable() { emit(Op::kSsrDis); }
void ProgramBuilder::barrier() { emit(Op::kBarrier); }

void ProgramBuilder::csrr_cycle(XReg rd) {
  Instr& in = emit(Op::kCsrrCycle);
  in.rd = rd;
}

void ProgramBuilder::csrr_cycleh(XReg rd) {
  Instr& in = emit(Op::kCsrrCycleH);
  in.rd = rd;
}

void ProgramBuilder::nop() { emit(Op::kNop); }

void ProgramBuilder::raw(const Instr& in) {
  SARIS_CHECK(op_class(in.op) != OpClass::kBranch,
              "raw() cannot emit branches (labels unresolved)");
  instrs_.push_back(in);
}

Program ProgramBuilder::build() {
  Program p;
  p.instrs_ = instrs_;
  p.labels_ = labels_;
  for (const Fixup& fx : fixups_) {
    auto it = labels_.find(fx.label);
    SARIS_CHECK(it != labels_.end(), "unresolved label " << fx.label);
    p.instrs_[fx.instr_idx].target = it->second;
  }
  // Well-formedness: every frep body op must be one the sequencer replays.
  for (u32 i = 0; i < p.size(); ++i) {
    const Instr& in = p.instrs_[i];
    if (in.op == Op::kFrep) {
      u32 len = frep_body_len(in.imm);
      SARIS_CHECK(i + len < p.size(), "frep body exceeds program");
      for (u32 k = 1; k <= len; ++k) {
        const Op op = p.instrs_[i + k].op;
        SARIS_CHECK(op_desc(op).frep_body,
                    "frep body instr " << k << " (" << op_name(op)
                                       << ") is not an FP op the sequencer "
                                          "can replay");
      }
    }
  }
  return p;
}

}  // namespace saris
