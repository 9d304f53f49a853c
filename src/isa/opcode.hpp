// Opcode set of the simulator's instruction IR, and the one table that says
// what each opcode does.
//
// This is a compact RV32G-subset plus the Snitch extensions the paper uses:
//  - FREP (hardware loop over offloaded FP instructions),
//  - scfgwi-style SSR configuration writes,
//  - SSR enable/disable CSR accesses.
// Instructions are interpreted; we never encode to binary.
//
// Every static fact about an opcode lives in its OpDesc row (kOpTable), and
// every value it computes lives in the evaluators below the table. Columns
// and their readers:
//  - name       mnemonic: disasm, diagnostics.
//  - cls        dispatch class: Core::int_step, decode_fp_op (its is-FP
//               check), the CFG (branch edges), Program::mix, the abstract
//               walk.
//  - flops      FLOP count, >0 marks useful FPU work: decode_fp_op (for
//               FpSubsystem's CorePerf flops / fpu_useful_ops), codegen
//               schedule FLOP totals, Program::mix.
//  - x_reads    rs1/rs2 slots read: dataflow use sets, the known-bits
//    x_write    stepper (analysis/known_regs.hpp), disasm; x_write marks rd.
//  - f_reads    frs1..frs3 slots read, in operand order: decode_fp_op
//    f_write    (core/fp_op.hpp; decoded once per program load into the FPU
//               queue entry that operand readiness, SR-stall attribution,
//               stream pops and FREP staggering read), stagger_rotate on an
//               Instr, dataflow use/def sets, disasm; f_write marks frd.
//  - imm        how the immediate is used: disasm operand formatting.
//  - mem,       memory direction and width of loads/stores (integer and
//    mem_bytes  FP; every FP one moves a 64-bit word, so FpOp keeps only
//               mem): Core (integer LSU, FP address resolution),
//               decode_fp_op, absint access enumeration, dataflow (a load
//               never pushes to a stream).
//  - lat        FPU latency class (fpu_latency): decode_fp_op.
//  - frep_body  may sit in an FREP body: ProgramBuilder::build, the CFG's
//               structural check, Core, FrepSequencer, codegen.
// Evaluators: int_alu (Core, known-bits stepper), branch_taken (same), and
// fp_alu (FpSubsystem). The scfgwi selector and config-word map are decoded
// in ssr/ssr_config.hpp.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

#include "common/types.hpp"

namespace saris {

enum class Op : u16 {
  // ---- integer ALU ----
  kAddi,   // rd = rs1 + imm
  kAdd,    // rd = rs1 + rs2
  kSub,    // rd = rs1 - rs2
  kLui,    // rd = imm << 12
  kSlli,   // rd = rs1 << imm
  kSrli,   // rd = rs1 >> imm (logical)
  kAndi,   // rd = rs1 & imm
  kMul,    // rd = rs1 * rs2 (M ext; used by index init)
  // ---- integer memory (TCDM) ----
  kLw,     // rd = mem32[rs1 + imm]
  kSw,     // mem32[rs1 + imm] = rs2
  kLh,     // rd = sext(mem16[rs1 + imm])
  kSh,     // mem16[rs1 + imm] = rs2[15:0]
  // ---- control flow ----
  kBeq,    // if rs1 == rs2 goto label
  kBne,
  kBlt,    // signed
  kBge,
  kJal,    // unconditional jump (rd unused in our kernels)
  kHalt,   // core is done (models return to the runtime)
  // ---- FP compute (double precision) ----
  kFaddD,  // frd = frs1 + frs2
  kFsubD,
  kFmulD,
  kFmaddD,   // frd = frs1 * frs2 + frs3
  kFmsubD,   // frd = frs1 * frs2 - frs3
  kFnmsubD,  // frd = -(frs1 * frs2) + frs3
  kFsgnjD,   // frd = frs1 (move)
  // ---- FP memory ----
  kFld,    // frd = mem64[rs1 + imm]
  kFsd,    // mem64[rs1 + imm] = frs2
  // ---- Snitch extensions ----
  kFrep,     // hardware loop: repeat next `imm` FP instrs, reps = xrs1
  kScfgwi,   // SSR config write: lane/word selected by imm, value = xrs1
  kSsrEn,    // csrsi ssr: enable stream semantics on f0..f2
  kSsrDis,   // csrci ssr: disable stream semantics
  // ---- cluster runtime ----
  kBarrier,  // cluster hardware barrier
  kCsrrCycle,   // rd = current cycle, bits 31:0 (rdcycle)
  kCsrrCycleH,  // rd = current cycle, bits 63:32 (rdcycleh)
  kNop,         // must stay last (kNumOps)
};

inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kNop) + 1;

/// Functional class used by the core's dispatch logic.
enum class OpClass { kInt, kIntMem, kBranch, kFpCompute, kFpMem, kSys };

/// Register-slot masks for OpDesc::x_reads (rs1, rs2) and OpDesc::f_reads
/// (frs1, frs2, frs3).
inline constexpr u8 kSlot1 = 1, kSlot2 = 2, kSlot3 = 4;

/// How an op uses Instr::imm.
enum class ImmUse : u8 {
  kNone,
  kValue,   ///< ALU operand
  kOffset,  ///< load/store byte offset from rs1
  kFrep,    ///< body length / stagger encoding (isa/instr.hpp)
  kScfg,    ///< lane * 256 + config word (ssr/ssr_config.hpp)
};

enum class MemDir : u8 { kNone, kLoad, kStore };

/// FPU latency class; fpu_latency (core/fp_op.hpp) maps it to cycles.
enum class FpLat : u8 { kNone, kArith, kMove };

/// Everything static about one opcode (see the column list at the top).
struct OpDesc {
  Op op = Op::kNop;
  std::string_view name;
  OpClass cls = OpClass::kSys;
  u8 flops = 0;
  u8 x_reads = 0;
  bool x_write = false;
  u8 f_reads = 0;
  bool f_write = false;
  ImmUse imm = ImmUse::kNone;
  MemDir mem = MemDir::kNone;
  u8 mem_bytes = 0;
  FpLat lat = FpLat::kNone;
  bool frep_body = false;

  constexpr bool is_fp() const {
    return cls == OpClass::kFpCompute || cls == OpClass::kFpMem;
  }
};

// clang-format off
inline constexpr std::array<OpDesc, kNumOps> kOpTable = {{
  {.op = Op::kAddi, .name = "addi", .cls = OpClass::kInt,
   .x_reads = kSlot1, .x_write = true, .imm = ImmUse::kValue},
  {.op = Op::kAdd, .name = "add", .cls = OpClass::kInt,
   .x_reads = kSlot1 | kSlot2, .x_write = true},
  {.op = Op::kSub, .name = "sub", .cls = OpClass::kInt,
   .x_reads = kSlot1 | kSlot2, .x_write = true},
  {.op = Op::kLui, .name = "lui", .cls = OpClass::kInt,
   .x_write = true, .imm = ImmUse::kValue},
  {.op = Op::kSlli, .name = "slli", .cls = OpClass::kInt,
   .x_reads = kSlot1, .x_write = true, .imm = ImmUse::kValue},
  {.op = Op::kSrli, .name = "srli", .cls = OpClass::kInt,
   .x_reads = kSlot1, .x_write = true, .imm = ImmUse::kValue},
  {.op = Op::kAndi, .name = "andi", .cls = OpClass::kInt,
   .x_reads = kSlot1, .x_write = true, .imm = ImmUse::kValue},
  {.op = Op::kMul, .name = "mul", .cls = OpClass::kInt,
   .x_reads = kSlot1 | kSlot2, .x_write = true},

  {.op = Op::kLw, .name = "lw", .cls = OpClass::kIntMem,
   .x_reads = kSlot1, .x_write = true, .imm = ImmUse::kOffset,
   .mem = MemDir::kLoad, .mem_bytes = 4},
  {.op = Op::kSw, .name = "sw", .cls = OpClass::kIntMem,
   .x_reads = kSlot1 | kSlot2, .imm = ImmUse::kOffset,
   .mem = MemDir::kStore, .mem_bytes = 4},
  {.op = Op::kLh, .name = "lh", .cls = OpClass::kIntMem,
   .x_reads = kSlot1, .x_write = true, .imm = ImmUse::kOffset,
   .mem = MemDir::kLoad, .mem_bytes = 2},
  {.op = Op::kSh, .name = "sh", .cls = OpClass::kIntMem,
   .x_reads = kSlot1 | kSlot2, .imm = ImmUse::kOffset,
   .mem = MemDir::kStore, .mem_bytes = 2},

  {.op = Op::kBeq, .name = "beq", .cls = OpClass::kBranch,
   .x_reads = kSlot1 | kSlot2},
  {.op = Op::kBne, .name = "bne", .cls = OpClass::kBranch,
   .x_reads = kSlot1 | kSlot2},
  {.op = Op::kBlt, .name = "blt", .cls = OpClass::kBranch,
   .x_reads = kSlot1 | kSlot2},
  {.op = Op::kBge, .name = "bge", .cls = OpClass::kBranch,
   .x_reads = kSlot1 | kSlot2},
  {.op = Op::kJal, .name = "jal", .cls = OpClass::kBranch},
  {.op = Op::kHalt, .name = "halt", .cls = OpClass::kSys},

  {.op = Op::kFaddD, .name = "fadd.d", .cls = OpClass::kFpCompute, .flops = 1,
   .f_reads = kSlot1 | kSlot2, .f_write = true, .lat = FpLat::kArith,
   .frep_body = true},
  {.op = Op::kFsubD, .name = "fsub.d", .cls = OpClass::kFpCompute, .flops = 1,
   .f_reads = kSlot1 | kSlot2, .f_write = true, .lat = FpLat::kArith,
   .frep_body = true},
  {.op = Op::kFmulD, .name = "fmul.d", .cls = OpClass::kFpCompute, .flops = 1,
   .f_reads = kSlot1 | kSlot2, .f_write = true, .lat = FpLat::kArith,
   .frep_body = true},
  {.op = Op::kFmaddD, .name = "fmadd.d", .cls = OpClass::kFpCompute,
   .flops = 2, .f_reads = kSlot1 | kSlot2 | kSlot3, .f_write = true,
   .lat = FpLat::kArith, .frep_body = true},
  {.op = Op::kFmsubD, .name = "fmsub.d", .cls = OpClass::kFpCompute,
   .flops = 2, .f_reads = kSlot1 | kSlot2 | kSlot3, .f_write = true,
   .lat = FpLat::kArith, .frep_body = true},
  {.op = Op::kFnmsubD, .name = "fnmsub.d", .cls = OpClass::kFpCompute,
   .flops = 2, .f_reads = kSlot1 | kSlot2 | kSlot3, .f_write = true,
   .lat = FpLat::kArith, .frep_body = true},
  {.op = Op::kFsgnjD, .name = "fmv.d", .cls = OpClass::kFpCompute,
   .f_reads = kSlot1, .f_write = true, .lat = FpLat::kMove,
   .frep_body = true},

  {.op = Op::kFld, .name = "fld", .cls = OpClass::kFpMem,
   .x_reads = kSlot1, .f_write = true, .imm = ImmUse::kOffset,
   .mem = MemDir::kLoad, .mem_bytes = 8},
  {.op = Op::kFsd, .name = "fsd", .cls = OpClass::kFpMem,
   .x_reads = kSlot1, .f_reads = kSlot2, .imm = ImmUse::kOffset,
   .mem = MemDir::kStore, .mem_bytes = 8},

  {.op = Op::kFrep, .name = "frep.o", .cls = OpClass::kSys,
   .x_reads = kSlot1, .imm = ImmUse::kFrep},
  {.op = Op::kScfgwi, .name = "scfgwi", .cls = OpClass::kSys,
   .x_reads = kSlot1, .imm = ImmUse::kScfg},
  {.op = Op::kSsrEn, .name = "ssr_en", .cls = OpClass::kSys},
  {.op = Op::kSsrDis, .name = "ssr_dis", .cls = OpClass::kSys},
  {.op = Op::kBarrier, .name = "barrier", .cls = OpClass::kSys},
  {.op = Op::kCsrrCycle, .name = "csrr.cycle", .cls = OpClass::kSys,
   .x_write = true},
  {.op = Op::kCsrrCycleH, .name = "csrr.cycleh", .cls = OpClass::kSys,
   .x_write = true},
  {.op = Op::kNop, .name = "nop", .cls = OpClass::kSys},
}};
// clang-format on

constexpr bool op_table_in_order() {
  for (std::size_t i = 0; i < kNumOps; ++i) {
    if (static_cast<std::size_t>(kOpTable[i].op) != i) return false;
  }
  return true;
}
static_assert(op_table_in_order(), "kOpTable row i must describe Op(i)");

/// The descriptor row of `op` (a valid enumerator).
constexpr const OpDesc& op_desc(Op op) {
  return kOpTable[static_cast<std::size_t>(op)];
}

constexpr OpClass op_class(Op op) { return op_desc(op).cls; }
constexpr std::string_view op_name(Op op) { return op_desc(op).name; }

/// True for ops executed by the FP subsystem (offloaded on Snitch).
constexpr bool is_fp_op(Op op) { return op_desc(op).is_fp(); }

/// Number of floating-point operations contributed to FLOP counts.
/// (FMA-family ops count as 2, moves/loads as 0 — matches the paper's
/// per-point FLOP accounting in Table 1.)
constexpr u32 flops_of(Op op) { return op_desc(op).flops; }

/// True for FP ops that occupy the FPU datapath doing *useful* compute
/// (the paper's FPU-utilization numerator; excludes loads/stores/moves).
constexpr bool is_useful_fpu_op(Op op) { return flops_of(op) > 0; }

// ---- evaluators ----

/// Result of a kInt op, given a = x[rs1] and b = x[rs2].
constexpr u32 int_alu(Op op, u32 a, u32 b, i32 imm) {
  switch (op) {
    case Op::kAddi: return a + static_cast<u32>(imm);
    case Op::kAdd: return a + b;
    case Op::kSub: return a - b;
    case Op::kLui: return static_cast<u32>(imm) << 12;
    case Op::kSlli: return a << imm;
    case Op::kSrli: return a >> imm;
    case Op::kAndi: return a & static_cast<u32>(imm);
    case Op::kMul: return a * b;
    default: return 0;
  }
}

/// Whether a kBranch op jumps, given a = x[rs1] and b = x[rs2].
constexpr bool branch_taken(Op op, u32 a, u32 b) {
  switch (op) {
    case Op::kBeq: return a == b;
    case Op::kBne: return a != b;
    case Op::kBlt: return static_cast<i32>(a) < static_cast<i32>(b);
    case Op::kBge: return static_cast<i32>(a) >= static_cast<i32>(b);
    case Op::kJal: return true;
    default: return false;
  }
}

/// Result of a kFpCompute op on its sources in operand order.
constexpr double fp_alu(Op op, double a, double b, double c) {
  switch (op) {
    case Op::kFaddD: return a + b;
    case Op::kFsubD: return a - b;
    case Op::kFmulD: return a * b;
    case Op::kFmaddD: return a * b + c;
    case Op::kFmsubD: return a * b - c;
    case Op::kFnmsubD: return -(a * b) + c;
    case Op::kFsgnjD: return a;
    default: return 0.0;
  }
}

}  // namespace saris
