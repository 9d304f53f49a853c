#include "isa/program.hpp"

#include "common/log.hpp"

namespace saris {

u32 Program::label(const std::string& name) const {
  auto it = labels_.find(name);
  SARIS_CHECK(it != labels_.end(), "unknown label " << name);
  return it->second;
}

Program Program::from_instrs(std::vector<Instr> instrs) {
  Program p;
  p.instrs_ = std::move(instrs);
  return p;
}

Program::Mix Program::mix() const { return mix(0, size()); }

Program::Mix Program::mix(u32 begin, u32 end) const {
  SARIS_CHECK(begin <= end && end <= size(), "bad mix range");
  Mix m;
  for (u32 i = begin; i < end; ++i) {
    const Instr& in = instrs_[i];
    ++m.total;
    switch (op_class(in.op)) {
      case OpClass::kInt: ++m.int_alu; break;
      case OpClass::kIntMem: ++m.int_mem; break;
      case OpClass::kBranch: ++m.branch; break;
      case OpClass::kFpCompute:
        if (is_useful_fpu_op(in.op)) {
          ++m.fp_compute;
        } else {
          ++m.sys;  // FP moves: neither compute nor memory
        }
        break;
      case OpClass::kFpMem: ++m.fp_mem; break;
      case OpClass::kSys: ++m.sys; break;
    }
  }
  return m;
}

}  // namespace saris
