#include "analysis/dataflow.hpp"

#include <functional>
#include <set>
#include <sstream>
#include <string>

#include "isa/disasm.hpp"
#include "ssr/ssr_config.hpp"

namespace saris {

namespace {

std::string xname(u8 i) { return "x" + std::to_string(i); }
std::string fname(u8 i) {
  return (i < kNumSsrLanes ? "ft" : "f") + std::to_string(i % 32);
}

bool is_pop(FReg r, const SsrState& s) {
  return is_ssr_reg(r) && s.enabled == SsrState::kOn &&
         s.lane[r.idx] == SsrState::kRead;
}

bool is_push(FReg r, const SsrState& s) {
  return is_ssr_reg(r) && s.enabled == SsrState::kOn &&
         s.lane[r.idx] == SsrState::kWrite;
}

}  // namespace

void SsrStateProblem::transfer(u32 /*vi*/, const VirtInstr& v,
                               Value& s) const {
  const Instr& in = v.in;
  switch (in.op) {
    case Op::kSsrEn:
      s.enabled = SsrState::kOn;
      break;
    case Op::kSsrDis:
      s.enabled = SsrState::kOff;
      break;
    case Op::kScfgwi: {
      const ScfgSel sel = scfg_select(in.imm);
      if (!sel.lane_ok()) break;
      switch (scfg_launch_kind(sel.word)) {
        case SsrStreamKind::kAffineRead:
        case SsrStreamKind::kIndirectRead:
          s.lane[sel.lane] = SsrState::kRead;
          break;
        case SsrStreamKind::kAffineWrite:
          s.lane[sel.lane] = SsrState::kWrite;
          break;
        case SsrStreamKind::kNone:
          break;
      }
      break;
    }
    default:
      break;
  }
}

UseDef use_def(const VirtInstr& v, const SsrState& before) {
  const Instr& in = v.in;
  const OpDesc& d = op_desc(in.op);
  UseDef ud;
  for_each_x_read(in, [&](XReg r) { ud.use.add_x(r.idx); });
  if (d.x_write) ud.def.add_x(in.rd.idx);
  // Stream overlay: a pop is not a register use; an FP result pushed to a
  // write stream is not a register def (a load always writes the register).
  for_each_fp_read(in, [&](FReg r) {
    if (!is_pop(r, before)) ud.use.add_f(r.idx);
  });
  if (d.f_write) {
    if (d.mem == MemDir::kNone && is_push(in.frd, before)) {
      ud.stream_push = true;
    } else {
      ud.def.add_f(in.frd.idx);
    }
  }
  return ud;
}

namespace {

// ---- reaching definitions (definition-site bitvectors) ----

struct ReachingDefsProblem {
  using Value = std::vector<u64>;
  static constexpr bool kForward = true;

  u32 words = 0;
  std::vector<u64> entry;                ///< boundary: the 64 entry sites
  std::vector<std::vector<u64>> gen;     ///< per vinstr
  std::vector<std::vector<u64>> kill;    ///< per vinstr

  Value boundary() const { return entry; }
  Value init() const { return Value(words, 0); }
  bool join(Value& into, const Value& from) const {
    bool changed = false;
    for (u32 w = 0; w < words; ++w) {
      const u64 next = into[w] | from[w];
      changed |= next != into[w];
      into[w] = next;
    }
    return changed;
  }
  void transfer(u32 vi, const VirtInstr&, Value& v) const {
    for (u32 w = 0; w < words; ++w) {
      v[w] = (v[w] & ~kill[vi][w]) | gen[vi][w];
    }
  }
};

inline void set_bit(std::vector<u64>& v, u32 bit) {
  v[bit / 64] |= u64{1} << (bit % 64);
}
inline bool get_bit(const std::vector<u64>& v, u32 bit) {
  return (v[bit / 64] >> (bit % 64)) & 1u;
}

/// Dense register id: x regs 0..31, f regs 32..63.
inline u32 reg_id(bool is_f, u8 idx) { return (is_f ? 32u : 0u) + idx; }

void each_reg(const RegSet& s, const std::function<void(bool, u8)>& fn) {
  for (u8 i = 0; i < 32; ++i) {
    if (s.has_x(i)) fn(false, i);
  }
  for (u8 i = 0; i < 32; ++i) {
    if (s.has_f(i)) fn(true, i);
  }
}

}  // namespace

LivenessExport analyze_dataflow(const Cfg& cfg, u32 prog_size,
                                std::vector<Diagnostic>& diags) {
  const u32 vn = cfg.size();
  const u32 core = cfg.core();

  // ---- SSR stream state + misuse diagnostics ----
  DataflowResult<SsrStateProblem> ssr = solve(cfg, SsrStateProblem{});

  std::vector<UseDef> ud(vn);
  for (u32 vi = 0; vi < vn; ++vi) {
    ud[vi] = use_def(cfg.vinstrs()[vi], ssr.in[vi]);
  }

  std::set<std::pair<u32, u32>> ssr_reported;  // (pc, lane)
  for (u32 vi = 0; vi < vn; ++vi) {
    const VirtInstr& v = cfg.vinstrs()[vi];
    const SsrState& st = ssr.in[vi];
    if (!(st.enabled & SsrState::kOn)) continue;
    const bool definitely_on = st.enabled == SsrState::kOn;

    for_each_fp_read(v.in, [&](FReg r) {
      if (!is_ssr_reg(r)) return;
      const u8 lane_state = st.lane[r.idx];
      if (lane_state & SsrState::kRead) {
        if (lane_state != SsrState::kRead && definitely_on &&
            ssr_reported.emplace(v.pc, r.idx).second) {
          diags.push_back(Diagnostic{
              DiagKind::kUnconfiguredSsrRead, DiagSeverity::kWarning, core,
              v.pc,
              "read of " + fname(r.idx) +
                  " may reach a lane with no read stream launched on some "
                  "path: " +
                  disasm(v.in)});
        }
        return;
      }
      if (!ssr_reported.emplace(v.pc, r.idx).second) return;
      std::ostringstream os;
      os << "SSR-enabled read of " << fname(r.idx) << " but lane " << r.idx
         << (lane_state == SsrState::kWrite
                 ? " is launched as a write stream"
                 : " has no stream launched")
         << " — the FPU would wait forever: " << disasm(v.in);
      diags.push_back(Diagnostic{DiagKind::kUnconfiguredSsrRead,
                                 definitely_on ? DiagSeverity::kError
                                               : DiagSeverity::kWarning,
                                 core, v.pc, os.str()});
    });

    // fld into a stream register aborts the FPU at runtime.
    if (v.in.op == Op::kFld && is_ssr_reg(v.in.frd) &&
        ssr_reported.emplace(v.pc, 16u + v.in.frd.idx).second) {
      diags.push_back(Diagnostic{
          DiagKind::kUnconfiguredSsrRead,
          definitely_on ? DiagSeverity::kError : DiagSeverity::kWarning, core,
          v.pc,
          "fld into " + fname(v.in.frd.idx) +
              " while SSR streaming is enabled: " + disasm(v.in)});
    }
  }

  // ---- liveness (backward) ----
  DataflowResult<LivenessProblem> live = solve(cfg, LivenessProblem{ud});

  LivenessExport exp;
  exp.live_in.assign(prog_size, RegSet{});
  exp.live_out.assign(prog_size, RegSet{});
  for (u32 vi = 0; vi < vn; ++vi) {
    const u32 pc = cfg.vinstrs()[vi].pc;
    exp.live_in[pc] |= live.in[vi];
    exp.live_out[pc] |= live.out[vi];
  }

  // ---- dead stores: a def is dead when the register is not live out; a
  // finding is reported only when every stagger copy of the instruction is
  // dead (a value may be consumed through one rotation only) ----
  {
    std::vector<u8> has_live_def(prog_size, 0), has_dead_def(prog_size, 0);
    std::vector<u32> dead_example(prog_size, 0);
    for (u32 vi = 0; vi < vn; ++vi) {
      const RegSet& def = ud[vi].def;
      if (def.empty()) continue;
      // Never flag the stream registers: writes to f0..f2 under mixed SSR
      // state may be FIFO pushes rather than register defs.
      RegSet considered = def;
      considered.f &= ~0x7u;
      if (considered.empty() && def.f != 0) continue;
      const RegSet& out = live.out[vi];
      const bool dead = (considered.x & out.x) == 0 &&
                        (considered.f & out.f) == 0;
      const u32 pc = cfg.vinstrs()[vi].pc;
      if (dead) {
        has_dead_def[pc] = 1;
        dead_example[pc] = vi;
      } else {
        has_live_def[pc] = 1;
      }
    }
    for (u32 pc = 0; pc < prog_size; ++pc) {
      if (!has_dead_def[pc] || has_live_def[pc]) continue;
      const VirtInstr& v = cfg.vinstrs()[dead_example[pc]];
      std::string reg;
      each_reg(ud[dead_example[pc]].def, [&](bool is_f, u8 i) {
        reg = is_f ? fname(i) : xname(i);
      });
      diags.push_back(Diagnostic{
          DiagKind::kDeadStore, DiagSeverity::kWarning, core, pc,
          "value written to " + reg + " is never read: " + disasm(v.in)});
    }
  }

  // ---- reaching definitions + use-before-def ----
  {
    // Sites: one per defining virtual instruction (ops define at most one
    // register) plus one pseudo entry site per register.
    ReachingDefsProblem rd;
    std::vector<i32> site_of(vn, -1);
    std::vector<u32> site_reg;  // dense reg id per real site
    for (u32 vi = 0; vi < vn; ++vi) {
      if (ud[vi].def.empty()) continue;
      site_of[vi] = static_cast<i32>(site_reg.size());
      u32 id = 0;
      each_reg(ud[vi].def, [&](bool is_f, u8 i) { id = reg_id(is_f, i); });
      site_reg.push_back(id);
    }
    const u32 n_real = static_cast<u32>(site_reg.size());
    const u32 n_sites = n_real + 64;  // entry sites at [n_real, n_real+64)
    rd.words = (n_sites + 63) / 64;
    rd.entry.assign(rd.words, 0);
    for (u32 r = 0; r < 64; ++r) set_bit(rd.entry, n_real + r);

    // Per-register masks of real definition sites.
    std::vector<std::vector<u64>> real_defs_of(
        64, std::vector<u64>(rd.words, 0));
    for (u32 s = 0; s < n_real; ++s) set_bit(real_defs_of[site_reg[s]], s);

    rd.gen.assign(vn, std::vector<u64>(rd.words, 0));
    rd.kill.assign(vn, std::vector<u64>(rd.words, 0));
    for (u32 vi = 0; vi < vn; ++vi) {
      if (site_of[vi] < 0) continue;
      const u32 s = static_cast<u32>(site_of[vi]);
      const u32 r = site_reg[s];
      set_bit(rd.gen[vi], s);
      rd.kill[vi] = real_defs_of[r];
      set_bit(rd.kill[vi], n_real + r);  // kills the entry site too
      // gen wins over kill in the transfer; clearing our own bit from the
      // kill set keeps the vectors disjoint anyway.
      rd.kill[vi][s / 64] &= ~(u64{1} << (s % 64));
    }

    DataflowResult<ReachingDefsProblem> reach = solve(cfg, rd);

    std::set<std::pair<u32, u32>> reported;  // (pc, dense reg id)
    for (u32 vi = 0; vi < vn; ++vi) {
      if (ud[vi].use.empty()) continue;
      const VirtInstr& v = cfg.vinstrs()[vi];
      each_reg(ud[vi].use, [&](bool is_f, u8 i) {
        const u32 r = reg_id(is_f, i);
        // Definitely-undefined: only the entry pseudo-definition reaches.
        // (A register written on SOME path is allowed — the FREP loop's
        // exit-after-any-rotation edges would otherwise flag every
        // staggered accumulator.)
        bool any_real = false;
        for (u32 w = 0; w < rd.words && !any_real; ++w) {
          any_real = (reach.in[vi][w] & real_defs_of[r][w]) != 0;
        }
        if (any_real || !get_bit(reach.in[vi], n_real + r)) return;
        if (!reported.emplace(v.pc, r).second) return;
        diags.push_back(Diagnostic{
            DiagKind::kUseBeforeDef, DiagSeverity::kError, core, v.pc,
            "read of " + (is_f ? fname(i) : xname(i)) +
                " which no instruction writes beforehand: " + disasm(v.in)});
      });
    }
  }

  return exp;
}

}  // namespace saris
