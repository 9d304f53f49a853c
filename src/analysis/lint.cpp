#include "analysis/lint.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <sstream>

#include "analysis/verifier.hpp"
#include "isa/disasm.hpp"
#include "ssr/ssr_unit.hpp"

namespace saris {

namespace {

Diagnostic finding(DiagKind kind, u32 core, u32 pc, std::string msg) {
  Diagnostic d;
  d.kind = kind;
  d.severity = DiagSeverity::kWarning;
  d.core = core;
  d.pc = pc;
  d.message = std::move(msg);
  return d;
}

/// Rule 1: a single instruction soaking up scoreboard-operand stalls means
/// the dependency chain re-uses a result before the FPU latency is covered.
void lint_issue_gaps(const CompiledKernel& ck, const CostReport& cost,
                     std::vector<Diagnostic>& out) {
  for (u32 c = 0; c < cost.cores.size(); ++c) {
    const CoreCost& cc = cost.cores[c];
    if (!cc.complete || cc.busy == 0) continue;
    u32 worst_pc = 0;
    u64 worst = 0;
    for (u32 pc = 0; pc < cc.pc_stalls.size(); ++pc) {
      if (cc.pc_stalls[pc].operand > worst) {
        worst = cc.pc_stalls[pc].operand;
        worst_pc = pc;
      }
    }
    const double frac =
        static_cast<double>(worst) / static_cast<double>(cc.busy);
    if (worst < kLintIssueGapMinCycles || frac < kLintIssueGapMinFraction) {
      continue;
    }
    std::ostringstream os;
    os << "FPU issue gap: `" << disasm(ck.programs[c].at(worst_pc))
       << "` waits " << worst << " cycles ("
       << static_cast<u32>(frac * 100.0)
       << "% of busy) on scoreboard dependencies; the chain re-uses a "
          "result before the FPU latency is covered — rotate more "
          "accumulators (chains/stagger)";
    out.push_back(finding(DiagKind::kPerfFpuIssueGap, c, worst_pc, os.str()));
  }
}

/// Rule 2: max-live against the 32-entry register files — the headroom the
/// unroll/chains heuristics have left (allocator-sizing input, see ROADMAP).
void lint_register_pressure(const VerifyReport& rep,
                            std::vector<Diagnostic>& out) {
  for (u32 c = 0; c < rep.pressure.size(); ++c) {
    const RegPressure& p = rep.pressure[c];
    if (p.max_live_f >= kLintPressureCeiling) {
      std::ostringstream os;
      os << "FP register pressure " << p.max_live_f << "/" << kNumFRegs
         << " live at the peak; further unrolling would spill";
      out.push_back(
          finding(DiagKind::kPerfRegisterPressure, c, p.at_pc_f, os.str()));
    } else if (p.max_live_x >= kLintPressureCeiling) {
      std::ostringstream os;
      os << "integer register pressure " << p.max_live_x << "/" << kNumXRegs
         << " live at the peak; further unrolling would spill";
      out.push_back(
          finding(DiagKind::kPerfRegisterPressure, c, p.at_pc_x, os.str()));
    }
  }
}

/// Rule 3: streaming enabled but a lane never launched — a whole address
/// stream the FPU still pays load/store instructions for.
void lint_idle_lanes(const CompiledKernel& ck, const CostReport& cost,
                     std::vector<Diagnostic>& out) {
  for (u32 c = 0; c < ck.programs.size(); ++c) {
    const Program& prog = ck.programs[c];
    u32 ssren_pc = prog.size();
    for (u32 pc = 0; pc < prog.size(); ++pc) {
      if (prog.at(pc).op == Op::kSsrEn) {
        ssren_pc = pc;
        break;
      }
    }
    if (ssren_pc == prog.size()) continue;  // never streams: nothing to say
    std::array<bool, kNumSsrLanes> used{};
    for (const StreamLaunch& sl : cost.launches) {
      if (sl.core == c) used[sl.lane] = true;
    }
    for (u32 lane = 0; lane < kNumSsrLanes; ++lane) {
      if (used[lane]) continue;
      std::ostringstream os;
      os << "SSR lane " << lane
         << (lane < kNumIndirectSsrLanes ? "" : " (affine-only)")
         << " is never launched while streaming is enabled; another operand "
            "stream could replace explicit FP loads/stores";
      out.push_back(
          finding(DiagKind::kPerfSsrLaneIdle, c, ssren_pc, os.str()));
    }
  }
}

/// Rule 4: a stream whose busiest bank carries far more than its uniform
/// share while other core ports use the same bank — traffic that waits
/// on arbitration. Worst port per core, attributed to the launching
/// scfgwi.
void lint_bank_hotspots(const CostReport& cost, std::vector<Diagnostic>& out) {
  if (cost.conflict_free()) return;
  for (u32 c = 0; c < cost.cores.size(); ++c) {
    double worst_skew = 0;
    u32 worst_lane = 0, worst_bank = 0;
    u64 worst_peak = 0, worst_total = 0;
    for (u32 lane = 0; lane < kNumSsrLanes; ++lane) {
      const auto& banks = cost.port_banks[c * kCorePorts + kPortSsr0 + lane];
      const u64 total = std::accumulate(banks.begin(), banks.end(), u64{0});
      if (total == 0) continue;
      const u32 b = static_cast<u32>(
          std::max_element(banks.begin(), banks.end()) - banks.begin());
      if (cost.requesters(b) <= 1) continue;
      const double uniform =
          std::max(1.0, static_cast<double>(total) / kTcdmBanks);
      const double skew = static_cast<double>(banks[b]) / uniform;
      if (skew > worst_skew) {
        worst_skew = skew;
        worst_lane = lane;
        worst_bank = b;
        worst_peak = banks[b];
        worst_total = total;
      }
    }
    if (worst_skew < kLintHotspotSkew) continue;
    // Anchor at the first launch of that lane on that core.
    u32 pc = 0;
    for (const StreamLaunch& sl : cost.launches) {
      if (sl.core == c && sl.lane == worst_lane) {
        pc = sl.pc;
        break;
      }
    }
    std::ostringstream os;
    os << "bank hotspot: SSR lane " << worst_lane << " places " << worst_peak
       << " of its " << worst_total << " accesses on TCDM bank " << worst_bank
       << " (" << static_cast<u32>(worst_skew * 100.0)
       << "% of uniform share) which " << cost.requesters(worst_bank) - 1
       << " other requester(s) also touch; restride or pad the arena";
    out.push_back(finding(DiagKind::kPerfBankHotspot, c, pc, os.str()));
  }
}

}  // namespace

std::vector<Diagnostic> lint_kernel(const CompiledKernel& ck,
                                    const VerifyReport& rep,
                                    const CostReport& cost) {
  std::vector<Diagnostic> out;
  lint_issue_gaps(ck, cost, out);
  lint_register_pressure(rep, out);
  lint_idle_lanes(ck, cost, out);
  lint_bank_hotspots(cost, out);
  return out;
}

}  // namespace saris
