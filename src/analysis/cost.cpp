#include "analysis/cost.hpp"

#include "analysis/lint.hpp"
#include "analysis/verifier.hpp"
#include "cluster/cluster.hpp"
#include "runtime/kernel_runner.hpp"

namespace saris {

namespace {

/// Cycle budget of the priced run: far above any real cell (tens of
/// thousands of cycles), far below anything that would make compile-time
/// analysis noticeable.
constexpr Cycle kCostCycleBudget = Cycle{1} << 26;

}  // namespace

CostReport analyze_cost(const CompiledKernel& ck, const VerifyReport& rep) {
  ClusterConfig cfg;
  cfg.num_cores = static_cast<u32>(ck.programs.size());
  cfg.tcdm_bytes = ck.tcdm_bytes;
  Cluster cluster(cfg);
  cluster.tcdm().set_ideal_arbitration(true);
  stage_programs(ck, cluster);
  while (!cluster.all_halted() && cluster.now() < kCostCycleBudget) {
    cluster.step();
  }

  CostReport out;
  out.complete = cluster.all_halted();
  // The loop stops at the step after the last core halts, so now() is the
  // cluster's compute window (t0 = 0), matching RunMetrics::cycles.
  out.predicted_cycles = cluster.now();
  for (u32 c = 0; c < cluster.num_cores(); ++c) {
    const Core& core = cluster.core(c);
    CoreCost& cc = out.cores.emplace_back();
    cc.perf = core.perf();
    cc.complete = core.halted();
    cc.busy = core.halted() ? core.perf().halted_at + 1 : 0;
    cc.pc_stalls = core.pc_stalls();
    out.launches.insert(out.launches.end(), core.launches().begin(),
                        core.launches().end());
  }
  out.exact = out.complete && rep.absint.all_complete &&
              rep.absint.conflict_free();
  out.lint = lint_kernel(ck, rep, out);
  return out;
}

}  // namespace saris
