// Build-your-own stencil: SARIS "supports any stencil shape" (§2.1), so
// this example defines a stencil that is NOT in the paper's evaluation set
// — an anisotropic 2-D diagonal-cross operator — runs it through the whole
// pipeline (schedule, index arrays, codegen, simulation, verification), and
// prints the generated SARIS inner loop.
#include <cstdio>

#include "codegen/saris_codegen.hpp"
#include "isa/disasm.hpp"
#include "runtime/kernel_runner.hpp"
#include "stencil/reference.hpp"

int main() {
  using namespace saris;

  // An X-shaped (diagonal) 2-D stencil of radius 2 plus the center: the
  // kind of irregular footprint affine-only stream units cannot gather.
  StencilCode sc;
  sc.name = "diag_x2d2r";
  sc.dims = 2;
  sc.radius = 2;
  sc.tile_nx = sc.tile_ny = 64;
  sc.tile_nz = 1;
  sc.sched = ScheduleClass::kFmaChain;
  u32 coeff = 0;
  for (i32 r = -2; r <= 2; ++r) {
    if (r == 0) continue;
    for (i32 s : {-1, 1}) {
      Tap t;
      t.dx = r;
      t.dy = r * s;
      t.coeff = coeff++;
      sc.taps.push_back(t);
    }
  }
  Tap center;
  center.coeff = coeff++;
  sc.taps.push_back(center);
  sc.n_coeffs = coeff;

  std::printf("custom stencil '%s': %u diagonal taps, %u coeffs, %u FLOPs "
              "per point\n\n",
              sc.name.c_str(), sc.loads_per_point(), sc.n_coeffs,
              sc.flops_per_point());

  // The code generator decides the SARIS mapping automatically.
  SarisCodegen cg(sc);
  std::printf("chosen configuration: unroll=%u, frep=%s, stagger=%u, "
              "chains=%u\n",
              cg.unroll(), cg.use_frep() ? "yes" : "no", cg.stagger(),
              cg.schedule().chains);

  // Show the static index arrays for core 0 (one row's pop order).
  auto idx = cg.idx_values(0);
  for (u32 l = 0; l < 2; ++l) {
    std::printf("SR%u index array (core 0, %zu entries): ", l,
                idx[l].size());
    for (std::size_t i = 0; i < std::min<std::size_t>(12, idx[l].size());
         ++i) {
      std::printf("%u ", idx[l][i]);
    }
    std::printf("...\n");
  }

  // Run it on the cluster — same driver as the paper's codes, including
  // verification against the (shape-agnostic) reference executor.
  auto [base, saris_m] = run_both(sc);
  std::printf("\nbase:  %8llu cycles, %5.1f%% FPU util\n",
              static_cast<unsigned long long>(base.cycles),
              base.fpu_util() * 100);
  std::printf("saris: %8llu cycles, %5.1f%% FPU util  ->  %.2fx speedup\n",
              static_cast<unsigned long long>(saris_m.cycles),
              saris_m.fpu_util() * 100,
              static_cast<double>(base.cycles) / saris_m.cycles);
  std::printf("max rel error vs reference: %.2e\n\n", saris_m.max_rel_err);

  // Print the generated inner loop (the FREP body, if any).
  Program p = compile_kernel(sc, KernelVariant::kSaris, {}, 8).programs[0];
  std::printf("generated saris program for core 0 (%u instructions); "
              "around the point loop:\n",
              p.size());
  u32 loop_start = p.has_label("yloop") ? p.label("yloop") : 0;
  for (u32 i = loop_start;
       i < std::min(p.size(), loop_start + cg.schedule().ops() + 8); ++i) {
    std::printf("  %3u: %s\n", i, disasm(p.at(i)).c_str());
  }
  return 0;
}
