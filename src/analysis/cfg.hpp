// Control-flow graph over a Program, at FREP-expanded ("virtual") instruction
// granularity.
//
// The interpreter replays an FREP body with hardware register staggering:
// replay iteration k rotates FP operands with index >= stagger_base by
// k % stagger (core/frep.cpp). A dataflow analysis that looked only at the
// written body text would miss the rotated registers entirely, so the CFG is
// built over a virtual instruction list: the original program, plus one
// rotated copy of every staggered FREP body per stagger offset 1..s-1,
// wired into a cycle
//
//   body@0 -> body@1 -> ... -> body@(s-1) -> body@0
//
// with an exit edge from the end of every copy (the repetition count is a
// runtime register, so the loop may statically end after any iteration).
// Unstaggered bodies get a self-loop. Every virtual instruction carries its
// original pc, so analyses report findings against the program as written.
//
// Construction also performs the structural legality checks: every resolved
// branch/jump target in range, fall-through off the program end, FREP body
// bounds and content (FP compute only, no control flow, no int-memory ops),
// and stagger fields within the register file (kBadStagger covers rotation
// past f31). A program with structural errors yields no CFG — callers skip
// the dataflow stages and report the structural diagnostics alone.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "isa/program.hpp"

namespace saris {

/// One virtual instruction: the (possibly stagger-rotated) instruction text
/// plus the original program index it derives from.
struct VirtInstr {
  Instr in;
  u32 pc = 0;          ///< original program index
  u8 stagger_off = 0;  ///< rotation offset this copy was expanded with
};

class Cfg {
 public:
  /// Build the CFG for one core's program, appending structural diagnostics
  /// to `diags`. Returns std::nullopt when structural errors make the graph
  /// meaningless (bad targets / malformed FREP bodies).
  static std::optional<Cfg> build(const Program& p, u32 core,
                                  std::vector<Diagnostic>& diags);

  const std::vector<VirtInstr>& vinstrs() const { return vinstrs_; }
  u32 size() const { return static_cast<u32>(vinstrs_.size()); }

  /// Per-virtual-instruction successors and predecessors, each in the
  /// order its edges were added.
  std::span<const u32> succs(u32 vi) const { return succs_.row(vi); }
  std::span<const u32> preds(u32 vi) const { return preds_.row(vi); }

  u32 core() const { return core_; }

 private:
  /// Adjacency as compressed rows: node v's neighbours are
  /// `to[begin[v]]` .. `to[begin[v + 1] - 1]`.
  struct EdgeRows {
    std::vector<u32> begin;
    std::vector<u32> to;
    std::span<const u32> row(u32 v) const {
      return {to.data() + begin[v], begin[v + 1] - begin[v]};
    }
  };
  using Edge = std::pair<u32, u32>;  ///< (from, to)

  u32 core_ = 0;
  std::vector<VirtInstr> vinstrs_;
  EdgeRows succs_;
  EdgeRows preds_;

  /// Rows of `edges` keyed by their source (or, `reverse`, their target).
  static EdgeRows rows_of(u32 n, const std::vector<Edge>& edges,
                          bool reverse);
};

/// Structural checks alone (also run by Cfg::build): target validity, FREP
/// body legality, stagger ranges, fall-off-the-end. Exposed so the verifier
/// can report all structural findings even when the CFG is not built.
void check_structure(const Program& p, u32 core,
                     std::vector<Diagnostic>& diags);

}  // namespace saris
