#include "runtime/compiled_kernel.hpp"

#include "analysis/verifier.hpp"
#include "codegen/base_codegen.hpp"
#include "codegen/regalloc.hpp"
#include "codegen/saris_codegen.hpp"
#include "common/sim_error.hpp"

namespace saris {

const char* variant_name(KernelVariant v) {
  return v == KernelVariant::kBase ? "base" : "saris";
}

namespace {

/// One steady-state round of double-buffer DMA traffic: next tile in and
/// previous result out — the same shapes (and thus the same burst geometry
/// and bank interference) the real runtime would move. All jobs run as TCDM
/// reads so they are non-destructive regardless of TCDM occupancy; a read
/// and a write burst are timing-equivalent in the model.
std::vector<DmaJob> make_overlap_jobs(const StencilCode& sc,
                                      const KernelLayout& lay) {
  std::vector<DmaJob> jobs;
  u32 planes = sc.dims == 3 ? sc.tile_nz : 1;
  // Input array 0 with halo: the full tile extent.
  jobs.push_back(make_tile_dma_job(/*to_tcdm=*/false, lay.inputs[0],
                                   /*mem_addr=*/0, sc.tile_nx, sc.tile_ny,
                                   /*x0=*/0, /*y0=*/0, /*z0=*/0, sc.tile_nx,
                                   sc.tile_ny, planes));

  // Further input / extra arrays and the output: interior-sized, strided in
  // TCDM (halo skipped), contiguous in main memory.
  u32 n_interior_jobs =
      (sc.n_inputs - 1) + sc.n_extra_traffic_arrays + 1;  // +1 output
  u32 z0 = sc.dims == 3 ? sc.radius : 0;
  for (u32 j = 0; j < n_interior_jobs; ++j) {
    bool is_out = (j == n_interior_jobs - 1);
    jobs.push_back(make_tile_dma_job(
        /*to_tcdm=*/false, is_out ? lay.output : lay.inputs[0],
        /*mem_addr=*/(1 + j) * lay.tile_bytes, sc.tile_nx, sc.tile_ny,
        sc.radius, sc.radius, z0, sc.interior_nx(), sc.interior_ny(),
        sc.interior_nz()));
  }
  return jobs;
}

}  // namespace

CompiledKernel compile_kernel(const StencilCode& sc, KernelVariant variant,
                              const CodegenOptions& cg, u32 n_cores,
                              u32 tcdm_bytes) {
  // A core beyond the work partition has no work (core_work aborts on it);
  // fewer cores compile, for analysis, but execute_kernel refuses them.
  if (n_cores == 0 || n_cores > kPartitionCores) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                sc.name << ": cannot compile for " << n_cores
                        << " cores; the work partition serves 1 to "
                        << kPartitionCores);
  }
  CompiledKernel ck;
  ck.code = sc;
  ck.variant = variant;
  ck.options = cg;
  ck.n_cores = n_cores;
  ck.tcdm_bytes = tcdm_bytes;
  ck.programs.reserve(n_cores);

  std::vector<std::array<u32, 2>> counts(n_cores, {0, 0});
  if (variant == KernelVariant::kSaris) {
    const SarisCodegen scg(sc, cg);
    for (u32 c = 0; c < n_cores; ++c) {
      ck.idx_values.push_back(scg.idx_values(c));
      counts[c] = {static_cast<u32>(ck.idx_values[c][0].size()),
                   static_cast<u32>(ck.idx_values[c][1].size())};
    }
    ck.layout = make_layout(sc, n_cores, counts, tcdm_bytes);
    for (u32 c = 0; c < n_cores; ++c) {
      ck.programs.push_back(scg.emit(c, ck.layout));
    }
  } else {
    const BaseCodegen bcg(sc, cg);
    ck.layout = make_layout(sc, n_cores, counts, tcdm_bytes);
    for (u32 c = 0; c < n_cores; ++c) {
      ck.programs.push_back(bcg.emit(c, ck.layout));
    }
  }
  ck.overlap_jobs = make_overlap_jobs(sc, ck.layout);

  // Post-lowering verify pass: reject illegal programs before any cluster
  // ever executes them. The report rides with the artifact (and thus the
  // plan cache) so warm-cache executions keep the verdict. The cost pass
  // runs the lowered programs on an ideal-TCDM cluster and needs the
  // report's per-bank requester counts and register pressure, so asking for
  // analysis alone still runs verification — it just doesn't reject on
  // errors. Only `cg` decides either pass, so the plan-cache key, which
  // holds `cg`, says what the artifact carries.
  if (cg.verify || cg.analyze_cost) {
    auto report = std::make_shared<VerifyReport>(verify_kernel(ck));
    if (cg.verify) raise_if_bad(*report, ck.programs);
    if (cg.analyze_cost) report->cost = analyze_cost(ck, *report);
    ck.verify_report = std::move(report);
  }
  return ck;
}

}  // namespace saris
