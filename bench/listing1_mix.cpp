// Reproduces the instruction-mix argument of Listing 1 / Section 2.1 on the
// paper's running example (symmetric 7-point star): in the baseline point
// loop only ~35 % of instructions do useful compute, while SARIS nearly
// doubles that ratio — and its residual overhead is static, so unrolling
// and FREP push the dynamic compute share toward 1.
#include <cstdio>

#include "isa/disasm.hpp"
#include "report/table.hpp"
#include "runtime/compiled_kernel.hpp"
#include "runtime/kernel_runner.hpp"
#include "runtime/plan_cache.hpp"
#include "stencil/codes.hpp"

int main() {
  using namespace saris;
  const StencilCode& sc = example_star7p();
  std::printf("== Listing 1: instruction mix, symmetric 7-point star ==\n");

  Program pb = compile_kernel(sc, KernelVariant::kBase, {}, 8).programs[0];
  Program ps = compile_kernel(sc, KernelVariant::kSaris, {}, 8).programs[0];
  Program::Mix mb = pb.mix();
  Program::Mix ms = ps.mix();

  TextTable t({"variant", "total", "fp compute", "fp mem", "int+branch",
               "compute share"});
  auto row = [&](const char* name, const Program::Mix& m) {
    u32 intb = m.int_alu + m.int_mem + m.branch + m.sys;
    t.add_row({name, std::to_string(m.total), std::to_string(m.fp_compute),
               std::to_string(m.fp_mem), std::to_string(intb),
               TextTable::pct(static_cast<double>(m.fp_compute) / m.total)});
  };
  row("base (whole program)", mb);
  row("saris (whole program)", ms);
  std::printf("%s", t.str().c_str());
  std::printf("paper Listing 1 (point loop only): base 7/20 = 35%% useful "
              "compute, saris 7/12 = 58%%\n\n");

  // Dynamic mix: what fraction of *issued* instructions is useful compute
  // once FREP replays the static body (the \"static overhead\" point).
  RunConfig cb;
  cb.variant = KernelVariant::kBase;
  RunConfig cs;
  cs.variant = KernelVariant::kSaris;
  RunMetrics rb = run_kernel(sc, cb);
  RunMetrics rs = run_kernel(sc, cs);
  double db = static_cast<double>(rb.fpu_useful_ops) /
              static_cast<double>(rb.fp_instrs + rb.int_instrs);
  double ds = static_cast<double>(rs.fpu_useful_ops) /
              static_cast<double>(rs.fp_instrs + rs.int_instrs);
  std::printf("dynamic useful-compute share: base %.0f%%, saris %.0f%% "
              "(FPU util: base %.0f%%, saris %.0f%%)\n",
              db * 100, ds * 100, rb.fpu_util() * 100, rs.fpu_util() * 100);

  std::printf("\nsaris core-0 program (first 40 instructions):\n");
  Program head = ps;
  u32 n = std::min<u32>(40, head.size());
  for (u32 i = 0; i < n; ++i) {
    std::printf("  %2u: %s\n", i, disasm(head.at(i)).c_str());
  }
  std::printf("%s\n%s", PlanCache::global().summary().c_str(),
              PlanCache::global().cell_summary().c_str());
  return 0;
}
