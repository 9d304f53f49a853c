#include "analysis/cfg.hpp"

#include <sstream>

#include "core/frep.hpp"
#include "isa/disasm.hpp"

namespace saris {

namespace {

bool is_control_flow(Op op) {
  return op_class(op) == OpClass::kBranch || op == Op::kHalt;
}

struct FrepShape {
  u32 pc = 0;       ///< index of the kFrep instruction
  u32 body_len = 0;
  u32 stagger = 1;
  u32 stagger_base = 32;
  bool legal = true;
};

FrepShape frep_shape(const Program& p, u32 pc) {
  const Instr& in = p.at(pc);
  FrepShape f;
  f.pc = pc;
  f.body_len = frep_body_len(in.imm);
  f.stagger = frep_stagger(in.imm);
  f.stagger_base = frep_stagger_base(in.imm);
  f.legal = frep_body_len_ok(f.body_len) && pc + 1 + f.body_len <= p.size() &&
            frep_stagger_ok(f.stagger);
  return f;
}

void diag(std::vector<Diagnostic>& diags, DiagKind kind, DiagSeverity sev,
          u32 core, u32 pc, std::string msg) {
  diags.push_back(Diagnostic{kind, sev, core, pc, std::move(msg)});
}

}  // namespace

void check_structure(const Program& p, u32 core,
                     std::vector<Diagnostic>& diags) {
  const u32 n = p.size();
  for (u32 pc = 0; pc < n; ++pc) {
    const Instr& in = p.at(pc);
    const OpClass cls = op_class(in.op);

    if (cls == OpClass::kBranch) {  // conditional branches and jal
      if (in.target >= n) {
        std::ostringstream os;
        os << "resolved target @" << in.target << " outside program of " << n
           << " instructions: " << disasm(in);
        diag(diags, DiagKind::kBadBranchTarget, DiagSeverity::kError, core, pc,
             os.str());
      }
    }

    // Fall-through past the end: anything at the last index that can reach
    // pc+1 (the interpreter CHECK-aborts on pc == size).
    const bool falls_through = in.op != Op::kHalt && in.op != Op::kJal;
    if (falls_through && pc + 1 >= n) {
      diag(diags, DiagKind::kFallOffEnd, DiagSeverity::kError, core, pc,
           "control falls through past the last instruction (missing halt?): " +
               disasm(in));
    }

    if (in.op != Op::kFrep) continue;
    const FrepShape f = frep_shape(p, pc);
    if (!frep_body_len_ok(f.body_len)) {
      std::ostringstream os;
      os << "frep body length " << f.body_len << " outside [1, "
         << kFrepBufferDepth << "]";
      diag(diags, DiagKind::kBadFrepBody, DiagSeverity::kError, core, pc,
           os.str());
    } else if (pc + 1 + f.body_len > n) {
      std::ostringstream os;
      os << "frep body [" << pc + 1 << ", " << pc + 1 + f.body_len
         << ") runs past the program end (" << n << " instructions)";
      diag(diags, DiagKind::kBadFrepBody, DiagSeverity::kError, core, pc,
           os.str());
    } else {
      for (u32 q = pc + 1; q < pc + 1 + f.body_len; ++q) {
        const Instr& b = p.at(q);
        if (is_control_flow(b.op)) {
          diag(diags, DiagKind::kFrepOverControlFlow, DiagSeverity::kError,
               core, q,
               "control-flow instruction inside the frep body at @" +
                   std::to_string(pc) + ": " + disasm(b));
        } else if (!op_desc(b.op).frep_body) {
          diag(diags, DiagKind::kBadFrepBody, DiagSeverity::kError, core, q,
               "non-FP-compute instruction inside the frep body at @" +
                   std::to_string(pc) + ": " + disasm(b));
        }
      }
    }
    if (!frep_stagger_ok(f.stagger)) {
      diag(diags, DiagKind::kBadStagger, DiagSeverity::kError, core, pc,
           "frep stagger " + std::to_string(f.stagger) + " outside [1, " +
               std::to_string(kFrepMaxStagger) + "]");
    } else if (f.stagger > 1 && f.legal) {
      // Rotation reaches idx + (stagger - 1); it must stay inside the
      // register file for every staggered operand of every body instruction.
      for (u32 q = pc + 1; q < pc + 1 + f.body_len; ++q) {
        const Instr& b = p.at(q);
        for (FReg r : {b.frd, b.frs1, b.frs2, b.frs3}) {
          if (r.idx >= f.stagger_base &&
              r.idx + f.stagger - 1 >= kNumFRegs) {
            std::ostringstream os;
            os << "stagger " << f.stagger << "@f" << f.stagger_base
               << " rotates f" << static_cast<u32>(r.idx) << " past f31: "
               << disasm(b);
            diag(diags, DiagKind::kBadStagger, DiagSeverity::kError, core, q,
                 os.str());
          }
        }
      }
    }
  }
}

Cfg::EdgeRows Cfg::rows_of(u32 n, const std::vector<Edge>& edges,
                           bool reverse) {
  EdgeRows r;
  r.begin.assign(n + 1, 0);
  for (const auto& [from, to] : edges) ++r.begin[(reverse ? to : from) + 1];
  for (u32 v = 0; v < n; ++v) r.begin[v + 1] += r.begin[v];
  r.to.resize(edges.size());
  std::vector<u32> fill(r.begin.begin(), r.begin.end() - 1);
  for (const auto& [from, to] : edges) {
    r.to[fill[reverse ? to : from]++] = reverse ? from : to;
  }
  return r;
}

std::optional<Cfg> Cfg::build(const Program& p, u32 core,
                              std::vector<Diagnostic>& diags) {
  std::vector<Diagnostic> structural;
  check_structure(p, core, structural);
  const bool fatal = has_errors(structural);
  diags.insert(diags.end(), structural.begin(), structural.end());
  if (fatal || p.empty()) return std::nullopt;

  Cfg cfg;
  cfg.core_ = core;
  const u32 n = p.size();

  // Original instructions first (virtual index == original pc).
  cfg.vinstrs_.reserve(n);
  for (u32 pc = 0; pc < n; ++pc) {
    cfg.vinstrs_.push_back(VirtInstr{p.at(pc), pc, 0});
  }

  // Rotated copies of every staggered FREP body, appended at the end.
  struct Expansion {
    FrepShape shape;
    std::vector<u32> copy_start;  ///< copy_start[o] for o in 1..s-1
  };
  std::vector<Expansion> expansions;
  for (u32 pc = 0; pc < n; ++pc) {
    if (p.at(pc).op != Op::kFrep) continue;
    Expansion e;
    e.shape = frep_shape(p, pc);
    for (u32 o = 1; o < e.shape.stagger; ++o) {
      e.copy_start.push_back(static_cast<u32>(cfg.vinstrs_.size()));
      for (u32 q = pc + 1; q < pc + 1 + e.shape.body_len; ++q) {
        Instr rotated = p.at(q);
        stagger_rotate(rotated, e.shape.stagger_base, o);
        cfg.vinstrs_.push_back(VirtInstr{rotated, q, static_cast<u8>(o)});
      }
    }
    expansions.push_back(std::move(e));
  }

  const u32 vn = cfg.size();
  std::vector<Edge> edges;
  edges.reserve(2 * vn);

  // Sequential / branch edges over the original range.
  for (u32 vi = 0; vi < n; ++vi) {
    const Instr& in = cfg.vinstrs_[vi].in;
    if (in.op == Op::kHalt) continue;
    if (in.op == Op::kJal) {
      edges.emplace_back(vi, in.target);
      continue;
    }
    if (op_class(in.op) == OpClass::kBranch) {
      edges.emplace_back(vi, in.target);
      edges.emplace_back(vi, vi + 1);  // fall-through (check_structure)
      continue;
    }
    if (vi + 1 < n) edges.emplace_back(vi, vi + 1);
  }

  // FREP loop wiring: the fetch pass is the original body (offset 0); the
  // appended copies chain in rotation order with an exit edge after every
  // copy (the repetition count is a runtime value).
  for (const Expansion& e : expansions) {
    const u32 body0 = e.shape.pc + 1;
    const u32 last0 = e.shape.pc + e.shape.body_len;  // last instr of copy 0
    const u32 exit_vi = last0 + 1;                    // instr after the body
    const u32 s = e.shape.stagger;
    auto copy_begin = [&](u32 o) {
      return o == 0 ? body0 : e.copy_start[o - 1];
    };
    for (u32 o = 0; o < s; ++o) {
      const u32 begin = copy_begin(o);
      const u32 last = begin + e.shape.body_len - 1;
      if (o > 0) {
        // Sequential edges inside the appended copy, plus its exit edge
        // (copy 0 already has both from the loop above).
        for (u32 vi = begin; vi < last; ++vi) edges.emplace_back(vi, vi + 1);
        edges.emplace_back(last, exit_vi);
      }
      // Next rotation, or back to the first.
      edges.emplace_back(last, copy_begin((o + 1) % s));
    }
  }

  cfg.succs_ = rows_of(vn, edges, /*reverse=*/false);
  cfg.preds_ = rows_of(vn, edges, /*reverse=*/true);
  return cfg;
}

}  // namespace saris
