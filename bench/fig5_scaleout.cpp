// Reproduces Figure 5: FPU utilization for both variants and saris speedup
// in the Manticore-256s scale-out, with compute-to-memory time ratios
// (CMTR) for the memory-bound stencils.
// Paper: geomean FPU util 0.35 -> 0.64, geomean speedup 2.14x (memory-bound
// geomean 1.78x, up to 2.25x), seven of ten codes memory-bound, peak
// 406 GFLOP/s; CMTR labels 48%..94% on the memory-bound codes.
//
// --simulate G additionally runs every (code, variant) cell on a simulated
// G-cluster System — G concurrent tile shards contending for HBM bandwidth
// through the cycle-accurate HbmFrontend — and reports the simulated tile
// latency next to the analytic estimate scaled to the same G-cluster
// machine (same devices, same measured DMA derate). The delta column is the
// gap the analytic fair-share assumption leaves. Emits BENCH_fig5_sim.json.
// At G=1 the simulated run must be (and is checked to be) bit-identical to
// the single-cluster run_kernel pipeline.
//
// --tiles T streams T tiles back-to-back through every cluster (a fresh
// cluster per tile, reloads overlapping across clusters), so the run
// measures steady-state HBM contention instead of one tile's
// transient; a steady-state table (first vs steady tile latency and HBM
// utilization, mean inter-tile reload gap) and BENCH_fig5_steady.json are
// emitted.
//
//   fig5_scaleout [--simulate G] [--tiles T] [--codes a,b,...]
//                 [--json PATH] [--steady-json PATH] [--fault-seed S]
//
// --fault-seed S arms a seeded fault storm (fault/fault_plan.hpp) on every
// simulated cell: one injected cluster stall kills 1 of the G clusters
// mid-run, the System quarantines it, and the run completes on the
// survivors — the quarantined shard set is reported per cell. It needs
// G >= 2, so that a survivor remains. Cells with a quarantined cluster
// measure the degraded machine, so the analytic comparison columns read as
// "what the fault cost", not as model error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "common/stats.hpp"
#include "fault/fault_plan.hpp"
#include "flags.hpp"
#include "report/csv.hpp"
#include "report/table.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/sweep.hpp"
#include "scaleout/manticore.hpp"
#include "stencil/codes.hpp"
#include "stencil/tiling.hpp"
#include "system/system_runner.hpp"

namespace {

using namespace saris;

/// Analytic per-tile latency for the same G-cluster machine the simulator
/// builds: compute window stretched by measured imbalance, memory time at
/// the G-way-shared device bandwidth derated by measured DMA utilization —
/// the estimator's model, evaluated at the simulated machine's share.
double analytic_tile_g(const StencilCode& sc, const RunMetrics& m,
                       double dma_util, const HbmConfig& hbm, u32 g_count) {
  double t_comp = static_cast<double>(m.cycles) * m.imbalance();
  // Same machine as the HbmFrontend prices: one shared formula.
  double share = hbm.bytes_per_cycle_for_clusters(g_count) / g_count;
  double t_mem =
      static_cast<double>(tile_traffic(sc).total()) / (share * dma_util);
  return std::max(t_comp, t_mem);
}

struct SimRow {
  std::string code;
  const char* variant;
  u32 clusters;
  Cycle sim_tile;        ///< max over clusters: halt + DMA drain
  Cycle sim_compute;     ///< max compute window
  double analytic_tile;  ///< fair-share model at the same machine
  double delta;          ///< (sim - analytic) / analytic
  double hbm_util;
  u64 hbm_denied;
  double dma_util;
  u32 quarantined;  ///< clusters lost to injected faults (0 without them)
};

struct SteadyRow {
  std::string code;
  const char* variant;
  double first_tile;   ///< mean over clusters, tile 0 latency
  double steady_tile;  ///< mean over clusters and tiles >= 2
  double reload_gap;   ///< mean inter-tile gap (drain tail)
  double hbm_first;    ///< HBM utilization, first-tile phase
  double hbm_steady;   ///< HBM utilization, steady phase
  Cycle total_cycles;
};

/// Mean per-tile latency over the steady tiles (t >= 1) of every cluster.
/// Abandoned tiles (quarantined cluster: kNotYet sentinel) are skipped.
double steady_tile_mean(const SystemRunMetrics& sm) {
  double sum = 0.0;
  u64 n = 0;
  for (u32 g = 0; g < sm.tiles_latency.size(); ++g) {
    for (u32 t = 1; t < sm.tiles; ++t) {
      if (sm.tiles_latency[g][t] == kNotYet) continue;
      sum += static_cast<double>(sm.tiles_latency[g][t]);
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double first_tile_mean(const SystemRunMetrics& sm) {
  double sum = 0.0;
  u64 n = 0;
  for (u32 g = 0; g < sm.tiles_latency.size(); ++g) {
    if (sm.tiles_latency[g][0] == kNotYet) continue;
    sum += static_cast<double>(sm.tiles_latency[g][0]);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace saris;
  u32 simulate = 0;
  u32 tiles = 1;
  u64 fault_seed = 0;
  bool faulted = false;
  const char* json_path = "BENCH_fig5_sim.json";
  const char* steady_json_path = "BENCH_fig5_steady.json";
  std::vector<std::string> only_codes;
  const auto usage = [argv] {
    std::fprintf(stderr,
                 "usage: %s [--simulate G] [--tiles T] [--codes a,b,...] "
                 "[--json PATH] [--steady-json PATH] [--fault-seed S]\n",
                 argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--simulate") == 0 && i + 1 < argc) {
      simulate = parse_u32("--simulate", argv[++i], 1);
    } else if (std::strcmp(argv[i], "--tiles") == 0 && i + 1 < argc) {
      tiles = parse_u32("--tiles", argv[++i], 1);
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      fault_seed = parse_u64("--fault-seed", argv[++i]);
      faulted = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--steady-json") == 0 && i + 1 < argc) {
      steady_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--codes") == 0 && i + 1 < argc) {
      std::string csv_arg = argv[++i];
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        std::size_t comma = csv_arg.find(',', pos);
        std::string name = csv_arg.substr(
            pos, comma == std::string::npos ? comma : comma - pos);
        if (!name.empty()) only_codes.push_back(name);
        pos = comma == std::string::npos ? comma : comma + 1;
      }
    } else {
      return usage();
    }
  }
  if ((tiles > 1 || faulted) && simulate == 0) {
    std::fprintf(stderr, "--tiles/--fault-seed need --simulate G\n");
    return 2;
  }
  if (faulted && simulate < 2) {
    std::fprintf(stderr, "--fault-seed needs --simulate G with G >= 2\n");
    return usage();
  }

  // Validate every requested name up front (code_by_name raises kBadConfig
  // on unknown codes — a typo must fail loudly, not silently shrink
  // coverage).
  try {
    for (const std::string& n : only_codes) code_by_name(n);
  } catch (const SimError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  auto selected = [&](const StencilCode& sc) {
    if (only_codes.empty()) return true;
    for (const std::string& n : only_codes) {
      if (n == sc.name) return true;
    }
    return false;
  };

  std::printf("== Figure 5: Manticore-256s scale-out estimate ==\n");
  ManticoreConfig cfg;
  TextTable t({"code", "base util", "saris util", "speedup", "CMTR",
               "bound", "GFLOP/s", "dma util"});
  CsvWriter csv("fig5_scaleout.csv",
                {"code", "base_util", "saris_util", "speedup", "cmtr",
                 "memory_bound", "gflops", "dma_util"});
  std::vector<double> bu, su, sp, sp_mem;
  double peak_frac = 0.0, peak_gflops = 0.0;
  u32 mem_bound = 0;
  // Filter the job list before running it: a --codes subset (e.g. the CI
  // smoke) simulates only the selected cells instead of discarding most of
  // a full matrix sweep.
  std::vector<SweepJob> jobs;
  for (SweepJob& j : matrix_jobs()) {
    if (selected(*j.code)) jobs.push_back(std::move(j));
  }
  std::vector<RunMetrics> ms = run_sweep(jobs);
  std::vector<MatrixRun> rows;
  for (std::size_t i = 0; i + 1 < jobs.size(); i += 2) {
    // matrix_jobs orders base before saris per code; the filter keeps that.
    rows.push_back(MatrixRun{jobs[i].code, std::move(ms[i]),
                             std::move(ms[i + 1])});
  }
  for (const MatrixRun& run : rows) {
    const StencilCode& sc = *run.code;
    ScaleoutResult r = estimate_scaleout(sc, run.base, run.saris, cfg);
    bu.push_back(r.base.fpu_util);
    su.push_back(r.saris.fpu_util);
    sp.push_back(r.speedup);
    if (r.saris.memory_bound) {
      ++mem_bound;
      sp_mem.push_back(r.speedup);
    }
    peak_frac = std::max(peak_frac, r.saris.frac_peak);
    peak_gflops = std::max(peak_gflops, r.saris.gflops);
    t.add_row({sc.name, TextTable::pct(r.base.fpu_util),
               TextTable::pct(r.saris.fpu_util),
               TextTable::fmt(r.speedup, 2),
               r.saris.memory_bound ? TextTable::pct(r.saris.cmtr) : "-",
               r.saris.memory_bound ? "mem" : "comp",
               TextTable::fmt(r.saris.gflops, 0),
               TextTable::pct(run.saris.dma_util)});
    csv.add_row({sc.name, TextTable::fmt(r.base.fpu_util, 4),
                 TextTable::fmt(r.saris.fpu_util, 4),
                 TextTable::fmt(r.speedup, 3),
                 TextTable::fmt(r.saris.cmtr, 3),
                 r.saris.memory_bound ? "1" : "0",
                 TextTable::fmt(r.saris.gflops, 1),
                 TextTable::fmt(run.saris.dma_util, 4)});
  }
  std::printf("%s", t.str().c_str());
  std::printf(
      "geomean: base util %.0f%%, saris util %.0f%%, speedup %.2fx; "
      "memory-bound codes: %u (geomean speedup %.2fx)\n",
      geomean(bu) * 100, geomean(su) * 100, geomean(sp), mem_bound,
      sp_mem.empty() ? 0.0 : geomean(sp_mem));
  std::printf("peak: %.0f GFLOP/s = %.0f%% of the %.0f GFLOP/s system peak\n",
              peak_gflops, peak_frac * 100, cfg.peak_gflops());
  std::printf("paper:   base util 35%%, saris util 64%%, speedup 2.14x, "
              "7 memory-bound (1.78x), peak 406 GFLOP/s (79%%)\n");

  if (simulate > 0) {
    std::printf(
        "\n== Simulated %u-cluster system (HBM-arbitrated) vs analytic ==\n",
        simulate);
    if (tiles > 1) {
      std::printf("   (%u tiles streamed per cluster)\n", tiles);
    }
    TextTable st({"code", "variant", "sim t_tile", "analytic", "delta",
                  "hbm util", "denied", "sim speedup", "analytic speedup"});
    std::vector<SimRow> sim_rows;
    std::vector<SteadyRow> steady_rows;
    std::vector<double> sim_sp, ana_sp;
    for (const MatrixRun& run : rows) {
      const StencilCode& sc = *run.code;
      // One DMA derate per code, like the estimator (both variants share
      // the burst geometry).
      double dma_util =
          std::max(0.05, 0.5 * (run.base.dma_util + run.saris.dma_util));
      Cycle sim_tile[2] = {0, 0};
      double ana_tile[2] = {0.0, 0.0};
      const RunMetrics* solo[2] = {&run.base, &run.saris};
      KernelVariant variants[2] = {KernelVariant::kBase,
                                   KernelVariant::kSaris};
      for (int v = 0; v < 2; ++v) {
        SystemRunConfig sc_cfg;
        sc_cfg.clusters = simulate;
        sc_cfg.run.variant = variants[v];
        sc_cfg.hbm = cfg.hbm;
        sc_cfg.tiles = tiles;
        FaultPlan fplan;
        if (faulted) {
          // One injected stall kills one of the G clusters mid-run; the
          // survivors finish under quarantine. Same storm for every cell
          // (pure function of the seed), so cells are comparable.
          FaultStormConfig fs;
          fs.clusters = simulate;
          fs.cluster_stalls = 1;
          fs.horizon = 4000;
          fplan = FaultPlan::storm(fs, fault_seed);
          sc_cfg.run.faults = &fplan;
        }
        SystemRunMetrics sm = run_system_kernel(sc, sc_cfg);
        u32 n_quarantined = 0;
        for (u32 g = 0; g < simulate; ++g) {
          if (sm.quarantined[g]) {
            ++n_quarantined;
            std::printf("   %s/%s: cluster %u quarantined — %s\n",
                        sc.name.c_str(), variant_name(variants[v]), g,
                        sm.errors[g].c_str());
          }
        }
        if (simulate == 1) {
          // Acceptance self-check: a 1-cluster simulated run must be
          // bit-identical to the single-cluster pipeline that produced the
          // analytic inputs above.
          std::string why;
          SARIS_CHECK(
              metrics_bit_identical(*solo[v], sm.tiles_metrics[0][0], &why),
              sc.name << "/" << variant_name(variants[v])
                      << ": simulated 1-cluster run diverged from "
                         "run_kernel ("
                      << why << ")");
        }
        // The analytic model prices one tile; every column of this row is
        // therefore measured over the FIRST tile round (== the whole run
        // when tiles = 1, so single-tile output is unchanged) — mixing a
        // first-round latency with whole-run HBM stats would compare
        // numbers from different windows. The steady table below carries
        // the steady-phase story.
        Cycle first_round = 0;
        Cycle first_compute = 0;
        u64 first_denied = 0;
        double first_util = sm.tiles > 1 ? sm.hbm_util_first_tile
                                         : sm.hbm_utilization;
        for (u32 g = 0; g < simulate; ++g) {
          // A cluster quarantined before finishing its first tile leaves
          // the kNotYet sentinel in these slots; it contributes nothing
          // to the first-round maxima.
          if (sm.tiles_latency[g][0] != kNotYet) {
            first_round = std::max(first_round, sm.tiles_latency[g][0]);
          }
          if (sm.tiles_window[g][0] != kNotYet) {
            first_compute = std::max(first_compute, sm.tiles_window[g][0]);
          }
          first_denied += sm.tiles_hbm_denied[g][0];
        }
        sim_tile[v] = first_round;
        ana_tile[v] =
            analytic_tile_g(sc, *solo[v], dma_util, cfg.hbm, simulate);
        double delta =
            (static_cast<double>(first_round) - ana_tile[v]) / ana_tile[v];
        sim_rows.push_back(SimRow{sc.name, variant_name(variants[v]),
                                  simulate, first_round, first_compute,
                                  ana_tile[v], delta, first_util,
                                  first_denied, solo[v]->dma_util,
                                  n_quarantined});
        if (tiles > 1) {
          steady_rows.push_back(
              SteadyRow{sc.name, variant_name(variants[v]),
                        first_tile_mean(sm), steady_tile_mean(sm),
                        sm.mean_reload_gap(), sm.hbm_util_first_tile,
                        sm.hbm_util_steady, sm.cycles});
        }
        st.add_row({v == 0 ? sc.name : "", variant_name(variants[v]),
                    std::to_string(sim_tile[v]),
                    TextTable::fmt(ana_tile[v], 0),
                    TextTable::pct(delta),
                    TextTable::pct(first_util),
                    std::to_string(first_denied),
                    v == 0 ? "" : TextTable::fmt(
                        static_cast<double>(sim_tile[0]) / sim_tile[1], 2),
                    v == 0 ? "" : TextTable::fmt(ana_tile[0] / ana_tile[1],
                                                 2)});
      }
      sim_sp.push_back(static_cast<double>(sim_tile[0]) / sim_tile[1]);
      ana_sp.push_back(ana_tile[0] / ana_tile[1]);
    }
    std::printf("%s", st.str().c_str());
    std::printf(
        "geomean saris speedup at %u clusters: simulated %.2fx vs analytic "
        "%.2fx\n",
        simulate, geomean(sim_sp), geomean(ana_sp));
    if (simulate == 1) {
      std::printf("1-cluster simulated runs bit-identical to run_kernel: "
                  "all %zu cells OK\n",
                  sim_rows.size());
    }
    if (faulted) {
      u32 worst = 0;
      for (const SimRow& r : sim_rows) worst = std::max(worst, r.quarantined);
      std::printf("fault storm (seed %llu): every cell completed degraded, "
                  "at most %u of %u clusters quarantined\n",
                  static_cast<unsigned long long>(fault_seed), worst,
                  simulate);
    }

    std::FILE* f = std::fopen(json_path, "w");
    if (!f) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path);
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"fig5_scaleout_sim\",\n"
                 "  \"clusters\": %u,\n  \"rows\": [\n",
                 simulate);
    for (std::size_t i = 0; i < sim_rows.size(); ++i) {
      const SimRow& r = sim_rows[i];
      std::fprintf(
          f,
          "    {\"code\": \"%s\", \"variant\": \"%s\", "
          "\"sim_tile_cycles\": %llu, \"sim_compute_cycles\": %llu, "
          "\"analytic_tile_cycles\": %.1f, \"delta\": %.4f, "
          "\"hbm_utilization\": %.4f, \"hbm_denied_grants\": %llu, "
          "\"dma_util\": %.4f, \"quarantined_clusters\": %u}%s\n",
          r.code.c_str(), r.variant,
          static_cast<unsigned long long>(r.sim_tile),
          static_cast<unsigned long long>(r.sim_compute), r.analytic_tile,
          r.delta, r.hbm_util,
          static_cast<unsigned long long>(r.hbm_denied), r.dma_util,
          r.quarantined, i + 1 < sim_rows.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"geomean_sim_speedup\": %.3f,\n"
                 "  \"geomean_analytic_speedup\": %.3f\n}\n",
                 geomean(sim_sp), geomean(ana_sp));
    std::fclose(f);
    std::printf("wrote %s\n", json_path);

    if (tiles > 1) {
      std::printf(
          "\n== Steady state: %u tiles streamed per cluster ==\n", tiles);
      TextTable tt({"code", "variant", "first t_tile", "steady t_tile",
                    "reload gap", "hbm first", "hbm steady", "total cyc"});
      for (const SteadyRow& r : steady_rows) {
        tt.add_row({r.code, r.variant, TextTable::fmt(r.first_tile, 0),
                    TextTable::fmt(r.steady_tile, 0),
                    TextTable::fmt(r.reload_gap, 1),
                    TextTable::pct(r.hbm_first), TextTable::pct(r.hbm_steady),
                    std::to_string(r.total_cycles)});
      }
      std::printf("%s", tt.str().c_str());

      std::FILE* sf = std::fopen(steady_json_path, "w");
      if (!sf) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     steady_json_path);
        return 1;
      }
      std::fprintf(sf,
                   "{\n  \"bench\": \"fig5_scaleout_steady\",\n"
                   "  \"clusters\": %u,\n  \"tiles\": %u,\n"
                   "  \"rows\": [\n",
                   simulate, tiles);
      for (std::size_t i = 0; i < steady_rows.size(); ++i) {
        const SteadyRow& r = steady_rows[i];
        std::fprintf(
            sf,
            "    {\"code\": \"%s\", \"variant\": \"%s\", "
            "\"first_tile_cycles\": %.1f, \"steady_tile_cycles\": %.1f, "
            "\"mean_reload_gap\": %.1f, \"hbm_util_first\": %.4f, "
            "\"hbm_util_steady\": %.4f, \"total_cycles\": %llu}%s\n",
            r.code.c_str(), r.variant, r.first_tile, r.steady_tile,
            r.reload_gap, r.hbm_first, r.hbm_steady,
            static_cast<unsigned long long>(r.total_cycles),
            i + 1 < steady_rows.size() ? "," : "");
      }
      std::fprintf(sf, "  ]\n}\n");
      std::fclose(sf);
      std::printf("wrote %s\n", steady_json_path);
    }
  }

  std::printf("%s\n%s", PlanCache::global().summary().c_str(),
              PlanCache::global().cell_summary().c_str());
  return 0;
}
