#include "isa/disasm.hpp"

#include <algorithm>
#include <sstream>

#include "ssr/ssr_config.hpp"

namespace saris {

namespace {
std::string xr(XReg r) { return "x" + std::to_string(r.idx); }
std::string fr(FReg r) {
  if (r.idx < 3) return "ft" + std::to_string(r.idx);
  return "f" + std::to_string(r.idx);
}
}  // namespace

// Operands come from the opcode table, in assembler order: destination,
// integer sources, FP sources, then the immediate (a load/store prints its
// base register inside the offset operand) and a branch target.
std::string disasm(const Instr& in) {
  const OpDesc& d = op_desc(in.op);
  std::ostringstream os;
  os << d.name << " ";
  const char* sep = "";
  auto operand = [&]() -> std::ostream& {
    os << sep;
    sep = ", ";
    return os;
  };
  if (d.x_write) operand() << xr(in.rd);
  if (d.f_write) operand() << fr(in.frd);
  const u8 x_reads = d.imm == ImmUse::kOffset ? d.x_reads & ~kSlot1
                                               : d.x_reads;
  if (x_reads & kSlot1) operand() << xr(in.rs1);
  if (x_reads & kSlot2) operand() << xr(in.rs2);
  for_each_fp_read(in, [&](FReg r) { operand() << fr(r); });
  switch (d.imm) {
    case ImmUse::kNone:
      break;
    case ImmUse::kValue:
      operand() << in.imm;
      break;
    case ImmUse::kOffset:
      operand() << in.imm << "(" << xr(in.rs1) << ")";
      break;
    case ImmUse::kFrep:
      operand() << "body=" << frep_body_len(in.imm);
      if (frep_stagger(in.imm) > 1) {
        os << ", stagger=" << frep_stagger(in.imm) << "@f"
           << frep_stagger_base(in.imm);
      }
      break;
    case ImmUse::kScfg: {
      const ScfgSel sel = scfg_select(in.imm);
      operand() << "lane=" << sel.lane << ", word=" << sel.word;
      break;
    }
  }
  if (d.cls == OpClass::kBranch) operand() << "@" << in.target;
  return os.str();
}

std::string disasm(const Program& p) {
  std::ostringstream os;
  for (u32 i = 0; i < p.size(); ++i) {
    os << i << ":\t" << disasm(p.at(i)) << "\n";
  }
  return os.str();
}

std::string disasm_window(const Program& p, u32 center, u32 radius) {
  if (p.empty()) return {};
  const u32 begin = center > radius ? center - radius : 0;
  const u32 end = std::min(p.size(), center + radius + 1);
  std::ostringstream os;
  for (u32 i = begin; i < end; ++i) {
    os << (i == center ? "  -> " : "     ") << i << ":\t" << disasm(p.at(i))
       << "\n";
  }
  return os.str();
}

}  // namespace saris
