#include "analysis/absint.hpp"

#include <sstream>

#include "analysis/known_regs.hpp"
#include "isa/disasm.hpp"
#include "ssr/addr_gen.hpp"
#include "ssr/ssr_config.hpp"

namespace saris {

namespace {

constexpr u64 kIntStepBudget = 32u << 20;   ///< integer steps per core
constexpr u64 kAccessBudget = 1u << 26;     ///< accounted accesses per core
constexpr u32 kMaxAddrDiags = 8;            ///< address findings per core

Addr align8(Addr a) { return (a + 7u) & ~7u; }

}  // namespace

const char* core_port_name(u32 port) {
  switch (port) {
    case kPortSsrIdx: return "idx";
    case kPortSsr0: return "ssr0";
    case kPortSsr1: return "ssr1";
    case kPortSsr2: return "ssr2";
    case kPortFlsu: return "flsu";
    case kPortIlsu: return "ilsu";
    default: return "?";
  }
}

ArenaMap ArenaMap::from_layout(const KernelLayout& lay, u32 tcdm_bytes) {
  ArenaMap am;
  am.tcdm_bytes = tcdm_bytes;
  for (u32 i = 0; i < lay.inputs.size(); ++i) {
    am.arenas.push_back(Arena{lay.inputs[i],
                              lay.inputs[i] + static_cast<Addr>(lay.tile_bytes),
                              "input" + std::to_string(i), false});
  }
  am.arenas.push_back(Arena{lay.output,
                            lay.output + static_cast<Addr>(lay.tile_bytes),
                            "output", true});
  // Replica size is uniform; recover it from consecutive bases (or, for a
  // single core, from whatever allocation follows).
  if (!lay.coeffs_per_core.empty()) {
    Addr next = lay.top;
    for (const auto& specs : lay.core_idx) {
      for (const IdxArraySpec& s : specs) {
        if (s.count > 0 && s.addr < next && s.addr > lay.coeffs_per_core[0]) {
          next = s.addr;
        }
      }
    }
    const Addr sz = lay.coeffs_per_core.size() > 1
                        ? lay.coeffs_per_core[1] - lay.coeffs_per_core[0]
                        : next - lay.coeffs_per_core[0];
    for (u32 c = 0; c < lay.coeffs_per_core.size(); ++c) {
      am.arenas.push_back(Arena{lay.coeffs_per_core[c],
                                lay.coeffs_per_core[c] + sz,
                                "coeffs/c" + std::to_string(c), false});
    }
  }
  for (u32 c = 0; c < lay.core_idx.size(); ++c) {
    for (u32 l = 0; l < 2; ++l) {
      const IdxArraySpec& s = lay.core_idx[c][l];
      if (s.count == 0) continue;
      am.arenas.push_back(
          Arena{s.addr, s.addr + align8(s.count * static_cast<Addr>(2)),
                "idx/c" + std::to_string(c) + "/l" + std::to_string(l),
                false});
    }
  }
  return am;
}

i32 ArenaMap::find(Addr addr, u32 size) const {
  for (u32 i = 0; i < arenas.size(); ++i) {
    if (addr >= arenas[i].begin && addr + size <= arenas[i].end) {
      return static_cast<i32>(i);
    }
  }
  return -1;
}

namespace {

/// Concrete walk of one core's integer stream.
class Walker {
 public:
  Walker(const CompiledKernel& ck, u32 core, const ArenaMap& am,
         std::vector<Diagnostic>& diags)
      : ck_(ck), prog_(ck.programs.at(core)), core_(core), am_(am),
        diags_(diags) {
    for (PortPrediction& p : pred_.ports) {
      p.per_bank.assign(kTcdmBanks, 0);
    }
  }

  CorePrediction run() {
    const u32 n = prog_.size();
    u32 pc = 0;
    while (pc < n) {
      if (++pred_.int_steps > kIntStepBudget) {
        diag(DiagKind::kStepBudgetExceeded, DiagSeverity::kWarning, pc,
             "static execution exceeded the step budget");
        return finish(false);
      }
      if (fatal_) return finish(false);
      const Instr& in = prog_.at(pc);
      const OpDesc& d = op_desc(in.op);

      if (d.mem != MemDir::kNone) {
        if (!regs_.known(in.rs1)) {
          diag(DiagKind::kUnboundedValue, DiagSeverity::kError, pc,
               std::string(d.is_fp() ? "FP memory" : "memory") +
                   " address depends on a runtime value: " + disasm(in));
          return finish(false);
        }
        if (!access(pc, d.is_fp() ? kPortFlsu : kPortIlsu, regs_.address(in),
                    d.mem_bytes, d.mem == MemDir::kStore,
                    [&] { return disasm(in); })) {
          return finish(false);
        }
      } else if (d.cls == OpClass::kBranch) {
        switch (regs_.branch(in)) {
          case KnownRegs::Branch::kUnknown:
            diag(DiagKind::kUnboundedValue, DiagSeverity::kWarning, pc,
                 "branch condition depends on a runtime value; static "
                 "execution stops here: " +
                     disasm(in));
            return finish(false);
          case KnownRegs::Branch::kTaken:
            pc = in.target;
            continue;
          case KnownRegs::Branch::kFallThrough:
            break;
        }
      } else {
        switch (in.op) {
          case Op::kHalt:
            return finish(true);
          case Op::kFrep:
            if (!regs_.known(in.rs1)) {
              diag(DiagKind::kUnboundedValue, DiagSeverity::kWarning, pc,
                   "frep repetition count depends on a runtime value: " +
                       disasm(in));
            } else if (regs_.value(in.rs1) == 0) {
              diag(DiagKind::kBadFrepBody, DiagSeverity::kError, pc,
                   "frep with zero repetitions aborts at runtime: " +
                       disasm(in));
            }
            break;
          case Op::kScfgwi:
            if (!scfgwi(pc, in)) return finish(false);
            break;
          default:  // ALU, FP compute, SSR enable, barrier, ...
            break;
        }
      }
      regs_.retire(in);
      ++pc;
    }
    // Running off the end is a structural finding (kFallOffEnd); the walk
    // just stops.
    return finish(false);
  }

 private:
  CorePrediction finish(bool halted) {
    pred_.complete = halted && !fatal_ && !inexact_ && addr_diags_ == 0;
    return std::move(pred_);
  }

  void diag(DiagKind kind, DiagSeverity sev, u32 pc, std::string msg) {
    diags_.push_back(Diagnostic{kind, sev, core_, pc, std::move(msg)});
  }

  /// Bounds/arena checks for one access; accounts it on `port` when legal.
  /// Returns false when the walk should stop (diagnostic cap reached).
  /// `what()` names the access in a finding; it runs only when one is made.
  template <typename Describe>
  bool access(u32 pc, u32 port, Addr a, u32 size, bool is_write,
              const Describe& what) {
    if (++accounted_ > kAccessBudget) {
      diag(DiagKind::kStepBudgetExceeded, DiagSeverity::kWarning, pc,
           "static execution exceeded the access budget");
      fatal_ = true;
      return false;
    }
    const char* bad = nullptr;
    DiagKind kind = DiagKind::kOutOfTcdmAccess;
    i32 arena = -1;
    if (static_cast<u64>(a) + size > am_.tcdm_bytes) {
      bad = "outside TCDM";
    } else if (a % kWordBytes + size > kWordBytes) {
      bad = "crosses a 64-bit word boundary";
    } else if ((arena = am_.find(a, size)) < 0) {
      bad = "inside TCDM but outside every layout arena";
      kind = DiagKind::kOutOfArenaAccess;
    } else if (is_write && !am_.arenas[arena].writable) {
      bad = "write into read-only arena";
      kind = DiagKind::kOutOfArenaAccess;
    }
    if (bad != nullptr) {
      if (addr_diags_ < kMaxAddrDiags) {
        std::ostringstream os;
        os << (is_write ? "write" : "read") << " of " << size << " B at 0x"
           << std::hex << a << std::dec << " " << bad;
        if (kind == DiagKind::kOutOfArenaAccess && arena >= 0) {
          os << " '" << am_.arenas[arena].name << "'";
        }
        os << ": " << what();
        diag(kind, DiagSeverity::kError, pc, os.str());
      }
      if (++addr_diags_ >= kMaxAddrDiags) {
        fatal_ = true;
        return false;
      }
      return true;  // keep walking; the access itself is not accounted
    }
    pred_.ports[port].account(a);
    return true;
  }

  bool scfgwi(u32 pc, const Instr& in) {
    if (!regs_.known(in.rs1)) {
      diag(DiagKind::kUnboundedValue, DiagSeverity::kError, pc,
           "SSR configuration value depends on a runtime value: " +
               disasm(in));
      return false;
    }
    const u32 value = regs_.value(in.rs1);
    const ScfgSel sel = scfg_select(in.imm);
    if (!sel.lane_ok()) {
      diag(DiagKind::kBadScfgwi, DiagSeverity::kError, pc,
           "scfgwi to bad lane " + std::to_string(sel.lane) + ": " +
               disasm(in));
      return false;
    }
    const ScfgEffect e = apply_scfg_word(ssr_cfg_[sel.lane], sel, value);
    if (e.status != ScfgStatus::kOk) {
      diag(DiagKind::kBadScfgwi, DiagSeverity::kError, pc,
           std::string(scfg_status_text(e.status)) + ": " + disasm(in));
      return false;
    }
    switch (e.launch) {
      case SsrStreamKind::kNone:
        return true;
      case SsrStreamKind::kAffineRead:
        return launch_affine(pc, in, sel.lane, value, /*is_write=*/false);
      case SsrStreamKind::kAffineWrite:
        return launch_affine(pc, in, sel.lane, value, /*is_write=*/true);
      case SsrStreamKind::kIndirectRead:
        return launch_indirect(pc, in, sel.lane, value);
    }
    return true;
  }

  bool launch_affine(u32 pc, const Instr& in, u32 lane, Addr base,
                     bool is_write) {
    const SsrLaneConfig& cfg = ssr_cfg_[lane];
    const u64 elems = cfg.affine_elems();
    if (elems == 0) {
      diag(DiagKind::kBadScfgwi, DiagSeverity::kWarning, pc,
           "SSR launch with zero elements: " + disasm(in));
      return true;
    }
    AffineAddrGen gen;
    gen.start(cfg, base);
    while (!gen.done()) {
      if (!access(pc, kPortSsr0 + lane, gen.next(), 8, is_write, [&] {
            return "SSR lane " + std::to_string(lane) +
                   (is_write ? " write stream" : " read stream");
          })) {
        return false;
      }
    }
    return true;
  }

  bool launch_indirect(u32 pc, const Instr& in, u32 lane, Addr base) {
    const SsrLaneConfig& cfg = ssr_cfg_[lane];
    // Index-word fetches through the shared index port, 8 B at a time.
    const u32 per_word = kWordBytes / cfg.idx_size;
    const u64 n_words = (cfg.idx_count + per_word - 1) / per_word;
    for (u64 k = 0; k < n_words; ++k) {
      if (!access(pc, kPortSsrIdx, cfg.idx_base + k * kWordBytes, 8,
                  /*is_write=*/false, [&] {
                    return "SSR lane " + std::to_string(lane) + " index fetch";
                  })) {
        return false;
      }
    }
    // Gather addresses need the index values. The compile artifact carries
    // them for the generated kernels; anything else is out of static reach.
    const std::vector<u16>* vals = nullptr;
    if (cfg.idx_size == 2 && core_ < ck_.idx_values.size() &&
        core_ < ck_.layout.core_idx.size() &&
        cfg.idx_base == ck_.layout.core_idx[core_][lane].addr &&
        ck_.idx_values[core_][lane].size() >= cfg.idx_count) {
      vals = &ck_.idx_values[core_][lane];
    }
    if (vals == nullptr) {
      diag(DiagKind::kUnboundedValue, DiagSeverity::kWarning, pc,
           "indirect stream indices are not statically available; gather "
           "addresses unchecked: " +
               disasm(in));
      inexact_ = true;
      return true;
    }
    for (u32 k = 0; k < cfg.idx_count; ++k) {
      const Addr a =
          base + static_cast<Addr>((*vals)[k]) * kWordBytes;
      if (!access(pc, kPortSsr0 + lane, a, 8, /*is_write=*/false, [&] {
            return "SSR lane " + std::to_string(lane) + " gather";
          })) {
        return false;
      }
    }
    return true;
  }

  const CompiledKernel& ck_;
  const Program& prog_;
  u32 core_;
  const ArenaMap& am_;
  std::vector<Diagnostic>& diags_;

  KnownRegs regs_;
  std::array<SsrLaneConfig, kNumSsrLanes> ssr_cfg_{};

  CorePrediction pred_;
  u64 accounted_ = 0;
  u32 addr_diags_ = 0;
  bool fatal_ = false;
  bool inexact_ = false;
};

}  // namespace

AbsintResult abstract_interpret(const CompiledKernel& ck,
                                bool include_overlap_dma,
                                std::vector<Diagnostic>& diags) {
  AbsintResult r;
  const ArenaMap am = ArenaMap::from_layout(ck.layout, ck.tcdm_bytes);
  r.all_complete = true;
  for (u32 c = 0; c < ck.programs.size(); ++c) {
    Walker w(ck, c, am, diags);
    r.cores.push_back(w.run());
    r.all_complete = r.all_complete && r.cores.back().complete;
  }

  r.dma.per_bank.assign(kTcdmBanks, 0);
  if (include_overlap_dma) {
    u32 dma_diags = 0;
    for (const DmaJob& j : ck.overlap_jobs) {
      for (u32 p = 0; p < j.planes; ++p) {
        for (u32 row = 0; row < j.rows; ++row) {
          const Addr row_base = static_cast<Addr>(
              j.tcdm_addr + static_cast<i64>(p) * j.tcdm_plane_stride +
              static_cast<i64>(row) * j.tcdm_row_stride);
          for (u32 b = 0; b < j.row_bytes; b += kWordBytes) {
            const Addr a = row_base + b;
            if (static_cast<u64>(a) + kWordBytes > ck.tcdm_bytes) {
              if (dma_diags++ < kMaxAddrDiags) {
                std::ostringstream os;
                os << "overlap DMA word at 0x" << std::hex << a << std::dec
                   << " outside TCDM";
                diags.push_back(Diagnostic{DiagKind::kOutOfTcdmAccess,
                                           DiagSeverity::kError, 0, 0,
                                           os.str()});
              }
              continue;
            }
            r.dma.account(a);
          }
        }
      }
    }
  }
  return r;
}

}  // namespace saris
