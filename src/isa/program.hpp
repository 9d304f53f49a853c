// A Program is the unit of execution for one core: a flat instruction list
// with symbolic labels resolved to instruction indices.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "common/log.hpp"
#include "isa/instr.hpp"

namespace saris {

class Program {
 public:
  const std::vector<Instr>& instrs() const { return instrs_; }
  const Instr& at(u32 pc) const {
    SARIS_CHECK(pc < instrs_.size(), "pc " << pc << " out of range");
    return instrs_[pc];
  }
  u32 size() const { return static_cast<u32>(instrs_.size()); }
  bool empty() const { return instrs_.empty(); }

  /// Static instruction-mix statistics (used by the Listing-1 bench and by
  /// codegen tests: e.g. "7 of 20 loop instructions do useful compute").
  struct Mix {
    u32 total = 0;
    u32 fp_compute = 0;   ///< useful FPU ops (flops_of > 0)
    u32 fp_mem = 0;       ///< fld/fsd
    u32 int_alu = 0;
    u32 int_mem = 0;
    u32 branch = 0;
    u32 sys = 0;
  };
  Mix mix() const;
  /// Mix restricted to the half-open index range [begin, end).
  Mix mix(u32 begin, u32 end) const;

  /// Wrap a raw instruction list with no label resolution and none of the
  /// builder's validity checks. This is how the static verifier's negative
  /// tests construct deliberately malformed programs — ProgramBuilder
  /// rejects most of them at build() time.
  static Program from_instrs(std::vector<Instr> instrs);

 private:
  friend class ProgramBuilder;
  std::vector<Instr> instrs_;
  std::unordered_map<std::string, u32> labels_;

 public:
  /// Index of a named label (must exist).
  u32 label(const std::string& name) const;
  bool has_label(const std::string& name) const {
    return labels_.count(name) != 0;
  }
};

}  // namespace saris
