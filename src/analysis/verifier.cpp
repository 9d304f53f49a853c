#include "analysis/verifier.hpp"

#include <sstream>

#include "analysis/cfg.hpp"
#include "common/sim_error.hpp"
#include "isa/disasm.hpp"

namespace saris {

// ---- diagnostic rendering (declared in analysis/diagnostic.hpp) ----

const char* diag_kind_name(DiagKind k) {
  switch (k) {
    case DiagKind::kBadBranchTarget: return "bad-branch-target";
    case DiagKind::kFallOffEnd: return "fall-off-end";
    case DiagKind::kBadFrepBody: return "bad-frep-body";
    case DiagKind::kFrepOverControlFlow: return "frep-over-control-flow";
    case DiagKind::kBadStagger: return "bad-stagger";
    case DiagKind::kUseBeforeDef: return "use-before-def";
    case DiagKind::kDeadStore: return "dead-store";
    case DiagKind::kUnconfiguredSsrRead: return "unconfigured-ssr-read";
    case DiagKind::kOutOfArenaAccess: return "out-of-arena-access";
    case DiagKind::kOutOfTcdmAccess: return "out-of-tcdm-access";
    case DiagKind::kUnboundedValue: return "unbounded-value";
    case DiagKind::kBadScfgwi: return "bad-scfgwi";
    case DiagKind::kStepBudgetExceeded: return "step-budget-exceeded";
    case DiagKind::kNoHalt: return "no-halt";
    case DiagKind::kPerfFpuIssueGap: return "perf-fpu-issue-gap";
    case DiagKind::kPerfRegisterPressure: return "perf-register-pressure";
    case DiagKind::kPerfSsrLaneIdle: return "perf-ssr-lane-idle";
    case DiagKind::kPerfBankHotspot: return "perf-bank-hotspot";
  }
  return "?";
}

std::string diag_to_string(const Diagnostic& d) {
  std::ostringstream os;
  if (d.core == kOverlapDmaCore) {
    os << "overlap DMA: ";
  } else {
    os << "core " << d.core << " pc " << d.pc << ": ";
  }
  os << (d.severity == DiagSeverity::kError ? "error" : "warning") << " ["
     << diag_kind_name(d.kind) << "] " << d.message;
  return os.str();
}

// ---- report helpers ----

u32 VerifyReport::num_errors() const {
  u32 n = 0;
  for (const Diagnostic& d : diags) n += d.severity == DiagSeverity::kError;
  return n;
}

u32 VerifyReport::num_warnings() const {
  u32 n = 0;
  for (const Diagnostic& d : diags) n += d.severity == DiagSeverity::kWarning;
  return n;
}

// ---- verification entries ----

namespace {

void run_front_stages(const std::vector<Program>& progs, VerifyReport& rep) {
  for (u32 c = 0; c < progs.size(); ++c) {
    std::optional<Cfg> cfg = Cfg::build(progs[c], c, rep.diags);
    rep.pressure.push_back(
        cfg.has_value() ? analyze_dataflow(*cfg, progs[c].size(), rep.diags)
                        : RegPressure{});
  }
}

}  // namespace

VerifyReport verify_kernel(const CompiledKernel& ck) {
  VerifyReport rep;
  run_front_stages(ck.programs, rep);
  rep.absint = abstract_interpret(ck, rep.diags);
  return rep;
}

VerifyReport verify_programs(const std::vector<Program>& progs) {
  VerifyReport rep;
  run_front_stages(progs, rep);
  return rep;
}

std::string render_report(const VerifyReport& rep,
                          const std::vector<Program>& progs, u32 max_diags) {
  std::ostringstream os;
  os << "static verifier: " << rep.num_errors() << " error(s), "
     << rep.num_warnings() << " warning(s)\n";
  // Errors first, then warnings, up to the cap.
  std::vector<const Diagnostic*> order;
  for (const Diagnostic& d : rep.diags) {
    if (d.severity == DiagSeverity::kError) order.push_back(&d);
  }
  for (const Diagnostic& d : rep.diags) {
    if (d.severity == DiagSeverity::kWarning) order.push_back(&d);
  }
  u32 shown = 0;
  for (const Diagnostic* d : order) {
    if (shown++ == max_diags) {
      os << "  ... " << order.size() - max_diags << " more\n";
      break;
    }
    os << diag_to_string(*d) << "\n";
    if (d->core < progs.size() && d->pc < progs[d->core].size()) {
      os << disasm_window(progs[d->core], d->pc, 2);
    }
  }
  return os.str();
}

void raise_if_bad(const VerifyReport& rep,
                  const std::vector<Program>& progs) {
  if (rep.ok()) return;
  SARIS_RAISE(SimErrc::kIllegalProgram, 0,
              "kernel rejected by the static verifier\n"
                  << render_report(rep, progs));
}

}  // namespace saris
