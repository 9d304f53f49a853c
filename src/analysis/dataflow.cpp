#include "analysis/dataflow.hpp"

#include <bit>
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

// ---- reaching definitions, per register ----

/// Bit r of each mask is dense register id r: x regs 0..31, f regs 32..63.
struct ReachingDefs {
  u64 real = 0;   ///< some real definition of r reaches
  u64 entry = 0;  ///< the pseudo entry definition of r reaches
  bool operator==(const ReachingDefs&) const = default;
};

struct ReachingDefsProblem {
  using Value = ReachingDefs;
  static constexpr bool kForward = true;

  /// Per vinstr: the register it defines as a one-bit mask (ops define at
  /// most one), or 0. A definition of r reaches past the instruction and
  /// kills r's entry definition.
  const std::vector<u64>& def;

  Value boundary() const { return ReachingDefs{0, ~u64{0}}; }
  Value init() const { return ReachingDefs{}; }
  bool join(Value& into, const Value& from) const {
    const ReachingDefs before = into;
    into.real |= from.real;
    into.entry |= from.entry;
    return !(into == before);
  }
  void transfer(u32 vi, const VirtInstr&, Value& v) const {
    v.real |= def[vi];
    v.entry &= ~def[vi];
  }
};

/// Dense register id: x regs 0..31, f regs 32..63.
inline u32 reg_id(bool is_f, u8 idx) { return (is_f ? 32u : 0u) + idx; }

inline u64 reg_mask(const RegSet& s) { return u64{s.f} << 32 | s.x; }

/// Visit the registers of `s`: x regs, then f regs, each ascending.
template <typename Fn>
void each_reg(const RegSet& s, Fn&& fn) {
  for (u32 m = s.x; m != 0; m &= m - 1) {
    fn(false, static_cast<u8>(std::countr_zero(m)));
  }
  for (u32 m = s.f; m != 0; m &= m - 1) {
    fn(true, static_cast<u8>(std::countr_zero(m)));
  }
}

}  // namespace

RegPressure analyze_dataflow(const Cfg& cfg, u32 prog_size,
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

  // ---- register pressure over each pc's stagger copies folded together ----
  RegPressure pressure;
  {
    std::vector<RegSet> live_in(prog_size), live_out(prog_size);
    for (u32 vi = 0; vi < vn; ++vi) {
      const u32 pc = cfg.vinstrs()[vi].pc;
      live_in[pc] |= live.in[vi];
      live_out[pc] |= live.out[vi];
    }
    auto consider = [&pressure](const RegSet& s, u32 pc) {
      const u32 nx = static_cast<u32>(std::popcount(s.x));
      const u32 nf = static_cast<u32>(std::popcount(s.f));
      if (nx > pressure.max_live_x) {
        pressure.max_live_x = nx;
        pressure.at_pc_x = pc;
      }
      if (nf > pressure.max_live_f) {
        pressure.max_live_f = nf;
        pressure.at_pc_f = pc;
      }
    };
    for (u32 pc = 0; pc < prog_size; ++pc) consider(live_in[pc], pc);
    for (u32 pc = 0; pc < prog_size; ++pc) consider(live_out[pc], pc);
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
    std::vector<u64> def(vn);
    for (u32 vi = 0; vi < vn; ++vi) def[vi] = reg_mask(ud[vi].def);
    DataflowResult<ReachingDefsProblem> reach =
        solve(cfg, ReachingDefsProblem{def});

    std::set<std::pair<u32, u32>> reported;  // (pc, dense reg id)
    for (u32 vi = 0; vi < vn; ++vi) {
      if (ud[vi].use.empty()) continue;
      const VirtInstr& v = cfg.vinstrs()[vi];
      const ReachingDefs& in = reach.in[vi];
      each_reg(ud[vi].use, [&](bool is_f, u8 i) {
        const u32 r = reg_id(is_f, i);
        // Definitely-undefined: only the entry pseudo-definition reaches.
        // (A register written on SOME path is allowed — the FREP loop's
        // exit-after-any-rotation edges would otherwise flag every
        // staggered accumulator.)
        if ((in.real >> r) & 1u || !((in.entry >> r) & 1u)) return;
        if (!reported.emplace(v.pc, r).second) return;
        diags.push_back(Diagnostic{
            DiagKind::kUseBeforeDef, DiagSeverity::kError, core, v.pc,
            "read of " + (is_f ? fname(i) : xname(i)) +
                " which no instruction writes beforehand: " + disasm(v.in)});
      });
    }
  }

  return pressure;
}

}  // namespace saris
