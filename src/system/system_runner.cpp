#include "system/system_runner.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>

#include "common/log.hpp"
#include "common/run_context.hpp"
#include "fault/fault_plan.hpp"
#include "runtime/plan_cache.hpp"
#include "stencil/reference.hpp"

namespace saris {

u64 system_cluster_seed(u64 seed, u32 g) {
  // Distinct shards get well-separated seed streams (fill_random finalizes
  // the seed through splitmix64, so any distinct u64s decorrelate); the
  // stride keeps clear of run_kernel's seed+i per-input offsets. Cluster 0
  // is the G=1 bit-identity anchor: exactly `seed`.
  return seed + static_cast<u64>(g) * 0x100000001b3ull;
}

u64 system_tile_seed(u64 seed, u32 g, u32 t) {
  // Tile 0 reduces to the cluster seed (the single-tile anchor); later
  // tiles stride by the splitmix64 increment, again relying on
  // fill_random's finalizer for decorrelation.
  return system_cluster_seed(seed, g) +
         static_cast<u64>(t) * 0x9E3779B97F4A7C15ull;
}

Cycle SystemRunMetrics::reload_gap(u32 g, u32 t) const {
  SARIS_CHECK(g < tiles_latency.size() && t >= 1 &&
                  t < tiles_latency[g].size(),
              "reload_gap needs a (cluster, tile >= 1) pair, got (" << g
                                                                    << ", "
                                                                    << t
                                                                    << ")");
  return tiles_latency[g][t - 1] - tiles_window[g][t - 1];
}

double SystemRunMetrics::mean_reload_gap() const {
  u64 sum = 0;
  u64 n = 0;
  for (u32 g = 0; g < tiles_latency.size(); ++g) {
    for (u32 t = 1; t < tiles_latency[g].size(); ++t) {
      // Skip gaps whose preceding tile never drained (quarantined cluster:
      // the latency slot keeps its ~Cycle{0} sentinel).
      if (tiles_latency[g][t - 1] == ~Cycle{0}) continue;
      sum += reload_gap(g, t);
      ++n;
    }
  }
  return n == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(n);
}

bool SystemRunMetrics::degraded() const {
  for (u8 q : quarantined) {
    if (q) return true;
  }
  return false;
}

u32 SystemRunMetrics::healthy_clusters() const {
  u32 n = 0;
  for (u8 q : quarantined) {
    if (!q) ++n;
  }
  return n;
}

double SystemRunMetrics::fpu_util() const {
  if (cycles == 0 || tiles_metrics.empty()) return 0.0;
  u64 useful = 0;
  u64 cores = 0;
  for (const std::vector<RunMetrics>& cluster_tiles : tiles_metrics) {
    for (const RunMetrics& m : cluster_tiles) useful += m.fpu_useful_ops;
    if (!cluster_tiles.empty()) cores += cluster_tiles.front().num_cores();
  }
  return static_cast<double>(useful) /
         (static_cast<double>(cycles) * static_cast<double>(cores));
}

SystemRunMetrics execute_system_kernel(const CompiledKernel& ck, System& sys,
                                       const SystemRunConfig& cfg,
                                       std::vector<KernelIO>& ios,
                                       const std::vector<const Grid<>*>&
                                           goldens) {
  const StencilCode& sc = ck.code;
  const u32 g_count = sys.num_clusters();
  const u32 tiles = cfg.tiles;
  if (tiles < 1) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                sc.name << ": a system run needs tiles >= 1");
  }
  if (cfg.run.max_cycles == 0) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                sc.name << ": a system run needs run.max_cycles >= 1");
  }
  if (cfg.parallel || cfg.batch != 1) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                sc.name << ": parallel and batch are retired; a system run "
                           "ticks serially every cycle (parallel = "
                        << (cfg.parallel ? "true" : "false")
                        << ", batch = " << cfg.batch << ")");
  }
  if (g_count != cfg.clusters) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                sc.name << ": system has " << g_count
                        << " clusters but the config asks for "
                        << cfg.clusters);
  }
  if (ios.size() != static_cast<std::size_t>(g_count) * tiles) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                sc.name << ": need one KernelIO per (cluster, tile) ("
                        << ios.size() << " for " << g_count << " x " << tiles
                        << ")");
  }
  if (!goldens.empty() && goldens.size() != ios.size()) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                sc.name << ": goldens must be empty or one per (cluster, "
                           "tile)");
  }
  // A run that kept a staged tile ticks the System's clock (its hang guard
  // is at least one cycle); one that kept none quarantined every port.
  bool ran = sys.now() != 0;
  for (u32 g = 0; g < g_count; ++g) {
    ran = ran || sys.hbm().port(g).quarantined();
  }
  if (ran) {
    SARIS_RAISE(SimErrc::kBadConfig, 0,
                sc.name << ": the System has already run; a system run "
                           "needs a new one");
  }

  // ---- per-cluster tile-streaming state ----
  // The tile state machine advances inside after_tick, which
  // System::run_until runs right after each tick of cluster g.
  struct TileState {
    u32 cur_tile = 0;
    bool finished = false;   ///< all tiles done, or quarantined
    u64 granted_base = 0;    ///< port granted_bytes at current tile start
    u64 denied_base = 0;     ///< port denied_grants at current tile start
    std::optional<KernelRun> run;  ///< the current tile
    /// Quarantine record: set (with finished) when a run-level SimError
    /// took this cluster out of the run.
    std::shared_ptr<const SimError> error;
  };
  std::vector<TileState> st(g_count);

  SystemRunMetrics sm;
  sm.tiles = tiles;
  auto cycle_matrix = [&](std::vector<std::vector<Cycle>>& m, Cycle fill) {
    m.assign(g_count, std::vector<Cycle>(tiles, fill));
  };
  sm.tiles_metrics.assign(g_count, std::vector<RunMetrics>(tiles));
  cycle_matrix(sm.tiles_window, kNotYet);
  cycle_matrix(sm.tiles_latency, kNotYet);
  cycle_matrix(sm.tiles_start, kNotYet);
  cycle_matrix(sm.tiles_done_sys, kNotYet);
  sm.tiles_hbm_bytes.assign(g_count, std::vector<u64>(tiles, 0));
  sm.tiles_hbm_denied.assign(g_count, std::vector<u64>(tiles, 0));

  FaultPlan* const faults = cfg.run.faults;

  // Stage tile t on cluster g: its KernelRun stages the data at the
  // cluster's arena, binds the fault plan with the current system cycle as
  // the tile's tick offset (each tile's fresh cluster starts its clock at 0,
  // the plan's timeline must not; an unfinished cluster ticks every system
  // cycle, so its accumulated tick count is the system cycle) and applies
  // the tile's first fault hooks.
  auto stage_tile = [&](u32 g, u32 t) {
    TileState& ts = st[g];
    RunConfig tile_cfg = cfg.run;
    tile_cfg.seed = system_tile_seed(cfg.run.seed, g, t);
    // Tag the run context with the (cluster, tile)'s identity for the
    // duration of staging, so a raise or log line names the shard.
    RunContextScope scope(sc.name, variant_name(ck.variant), tile_cfg.seed,
                          g);
    ts.run.emplace(ck, sys.cluster(g), tile_cfg,
                   ios[static_cast<std::size_t>(g) * tiles + t],
                   sys.arena_base(g), sys.now());
    sm.tiles_start[g][t] = sys.now();
  };

  // Completion step for cluster g's current tile, once it has halted and
  // drained: finish the tile (verify + extract metrics, including the
  // flop-count invariant), then stage the next tile on a fresh cluster or
  // retire the cluster.
  auto complete = [&](u32 g) {
    TileState& ts = st[g];
    const Cycle latency = sys.cluster(g).now();
    const u32 t = ts.cur_tile;
    const std::size_t idx = static_cast<std::size_t>(g) * tiles + t;
    // Finish under this tile's own seed so a verification failure's
    // diagnostic (and typed error context) names the seed that reproduces
    // the shard, not cluster 0's base seed.
    RunContextScope scope(sc.name, variant_name(ck.variant),
                          system_tile_seed(cfg.run.seed, g, t), g);
    RunMetrics m = ts.run->finish(goldens.empty() ? nullptr : goldens[idx]);
    sm.tiles_window[g][t] = m.cycles;
    sm.tiles_latency[g][t] = latency;
    sm.tiles_done_sys[g][t] = sys.now();
    const u64 granted = sys.hbm().port(g).granted_bytes();
    const u64 denied = sys.hbm().port(g).denied_grants();
    sm.tiles_hbm_bytes[g][t] = granted - ts.granted_base;
    sm.tiles_hbm_denied[g][t] = denied - ts.denied_base;
    sm.tiles_metrics[g][t] = std::move(m);
    if (t + 1 < tiles) {
      ts.cur_tile = t + 1;
      ts.granted_base = granted;
      ts.denied_base = denied;
      ts.run = std::nullopt;  // it refers to the cluster fresh_cluster drops
      sys.fresh_cluster(g);
      stage_tile(g, t + 1);
    } else {
      ts.finished = true;
    }
  };

  // Quarantine: a run-level SimError on cluster g retires it mid-run — it
  // stops ticking (finished), its HBM demand is forced off so its
  // bandwidth share flows to the survivors, and its remaining tiles are
  // abandoned (kNotYet stamps). The recorded error is re-contextualized
  // with the cluster id and tile seed when the inner raise site did not
  // know them.
  auto quarantine = [&](u32 g, const SimError& e) {
    TileState& ts = st[g];
    const u64 tile_seed = system_tile_seed(cfg.run.seed, g, ts.cur_tile);
    ts.error = std::make_shared<const SimError>(
        e.errc(), e.code().empty() ? sc.name : e.code(),
        e.variant().empty() ? std::string(variant_name(ck.variant))
                            : e.variant(),
        e.seed() != 0 ? e.seed() : tile_seed, static_cast<i64>(g), e.cycle(),
        e.detail());
    ts.finished = true;
    sys.hbm().port(g).set_quarantined(true);
    SARIS_WARN("quarantined cluster " << g << " at tile " << ts.cur_tile
                                      << ": " << ts.error->what());
  };

  // ---- stage tile 0 everywhere ----
  // The System has not run, so every cluster and the frontend are at
  // power-on.
  sys.hbm().set_fault_plan(faults);
  if (faults) faults->rewind();
  for (u32 g = 0; g < g_count; ++g) {
    try {
      stage_tile(g, 0);
    } catch (const SimError& e) {
      quarantine(g, e);
    }
  }

  // ---- interleaved cycle loop ----
  // Each cluster's KernelRun closes the tile's compute window at its own
  // last halt and keeps it ticking (DMA drain only) until its engine idles
  // — that drain still contends for HBM bandwidth, which is exactly why it
  // is part of the simulated tile latency. The moment a tile drains, the
  // same after_tick invocation finishes it (verify + metrics), builds a
  // fresh cluster, and stages the next tile there, so the next system cycle
  // already ticks the new tile — reloads overlap with every other cluster's
  // progress.
  auto done = [&](u32 g) { return st[g].finished; };
  // Every run-level SimError of this cluster — a fault hook's raise, the
  // wall-clock watchdog, a verify miss or flop-invariant breach in
  // complete, a bad restage — is caught here and resolved as a quarantine;
  // only the policy decides later whether it surfaces.
  auto after_tick = [&](u32 g) {
    TileState& ts = st[g];
    try {
      ts.run->after_step();
      if (ts.run->done()) complete(g);
    } catch (const SimError& e) {
      quarantine(g, e);
    }
  };

  const std::string label =
      sc.name + std::string("/") + variant_name(ck.variant);
  // The hang guard budgets each tile round; a T-tile stream gets T budgets.
  const Cycle budget = cfg.run.max_cycles * static_cast<Cycle>(tiles);
  auto wall0 = std::chrono::steady_clock::now();
  sys.run_until(done, budget, label, after_tick);
  double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0)
          .count();

  // ---- resolve the fault policy ----
  // kRaise: the survivors were allowed to finish (their state is consistent
  // for the caller's post-mortem), but the run as a whole fails with the
  // first quarantined cluster's typed error, in cluster-id order.
  if (cfg.on_error == SystemFaultPolicy::kRaise) {
    for (u32 g = 0; g < g_count; ++g) {
      if (st[g].error) throw SimError(*st[g].error);
    }
  }

  // ---- aggregate ----
  // Quarantine-aware: abandoned tiles keep the kNotYet sentinel and must
  // not poison the maxima (kNotYet is ~Cycle{0}) or the sums.
  sm.step_wall_seconds = wall;
  sm.quarantined.assign(g_count, 0);
  sm.error_codes.assign(g_count, SimErrc::kNone);
  sm.errors.assign(g_count, std::string());
  for (u32 g = 0; g < g_count; ++g) {
    if (st[g].error) {
      sm.quarantined[g] = 1;
      sm.error_codes[g] = st[g].error->errc();
      sm.errors[g] = st[g].error->what();
    }
    for (u32 t = 0; t < tiles; ++t) {
      if (sm.tiles_window[g][t] == kNotYet) continue;  // abandoned tile
      const RunMetrics& m = sm.tiles_metrics[g][t];
      ++sm.tiles_ok;
      sm.flops += m.flops;
      sm.dma_bytes += m.dma_bytes;
      sm.compute_cycles = std::max(sm.compute_cycles, sm.tiles_window[g][t]);
    }
    // System window: this cluster's LAST completed tile (healthy clusters:
    // tile T-1; quarantined ones: whatever they finished before the fault).
    for (u32 t = tiles; t-- > 0;) {
      if (sm.tiles_done_sys[g][t] != kNotYet) {
        sm.cycles = std::max(sm.cycles, sm.tiles_done_sys[g][t]);
        break;
      }
    }
  }

  const bool limited = sys.hbm().limited();
  sm.hbm_granted_bytes = sys.hbm().granted_bytes();
  sm.hbm_denied_grants = sys.hbm().denied_grants();
  if (limited && sm.cycles > 0) {
    // All utilization ratios share HbmFrontend::utilization_of — measured
    // against the frontend's 16.16 budget over tick-exact windows, so they
    // are <= 1.
    sm.hbm_utilization =
        sys.hbm().utilization_of(sm.hbm_granted_bytes, sm.cycles);
    // Phase windows are chosen so every attributed byte provably lies
    // inside its window (<= 1 then follows from the budget bound): tile-0
    // bytes of cluster g are all granted by done_sys[g][0] <= first_end,
    // and steady bytes (tiles >= 1 of any cluster) are all granted after
    // that cluster's own tile-0 completion >= steady_start. first_end and
    // steady_start coincide for balanced clusters; under imbalance the
    // phases overlap and each ratio stays a sound per-phase lower bound.
    Cycle first_end = 0;
    Cycle steady_start = kNotYet;
    u64 first_bytes = 0;
    u64 steady_bytes = 0;
    for (u32 g = 0; g < g_count; ++g) {
      // A cluster quarantined before completing tile 0 contributes no
      // phase boundary (its done stamp is the kNotYet sentinel) and no
      // attributed bytes (its slots were never written past their zero
      // fill).
      if (sm.tiles_done_sys[g][0] != kNotYet) {
        first_end = std::max(first_end, sm.tiles_done_sys[g][0]);
        steady_start = std::min(steady_start, sm.tiles_done_sys[g][0]);
      }
      first_bytes += sm.tiles_hbm_bytes[g][0];
      for (u32 t = 1; t < tiles; ++t) steady_bytes += sm.tiles_hbm_bytes[g][t];
    }
    if (first_end > 0) {
      sm.hbm_util_first_tile =
          sys.hbm().utilization_of(first_bytes, first_end);
    }
    if (tiles > 1 && steady_start != kNotYet && sm.cycles > steady_start) {
      // Unlike the first-tile window (which starts at the frontend reset),
      // the steady window can inherit credits banked just before it — up
      // to one credit cap per port plus the sub-word carry — so the raw
      // ratio can exceed 1 by that sliver on short saturated windows;
      // clamp to keep the documented <= 1 invariant.
      sm.hbm_util_steady = std::min(
          1.0,
          sys.hbm().utilization_of(steady_bytes, sm.cycles - steady_start));
    }
  }
  return sm;
}

SystemRunMetrics run_system_kernel(const StencilCode& sc,
                                   const SystemRunConfig& cfg) {
  SystemConfig scfg;
  scfg.clusters = cfg.clusters;
  scfg.cluster = cfg.run.cluster;
  scfg.hbm = cfg.hbm;
  scfg.hbm_limit = cfg.hbm_limit;
  scfg.arena_bytes = cfg.arena_bytes;
  System sys(scfg);

  std::vector<KernelIO> ios(static_cast<std::size_t>(cfg.clusters) *
                            cfg.tiles);
  std::vector<std::shared_ptr<const Grid<>>> golden_refs;
  std::vector<const Grid<>*> goldens;
  std::shared_ptr<const CompiledKernel> ck;
  for (u32 g = 0; g < cfg.clusters; ++g) {
    for (u32 t = 0; t < cfg.tiles; ++t) {
      u64 seed = system_tile_seed(cfg.run.seed, g, t);
      KernelIO& io = ios[static_cast<std::size_t>(g) * cfg.tiles + t];
      io.inputs = seeded_inputs(sc, seed);
      io.coeffs = sc.default_coeffs();
      // Precomputed host-side and memoized per seed.
      golden_refs.push_back(reference_for_seed(sc, seed, &io.inputs));
      goldens.push_back(golden_refs.back().get());
    }
    // Fetched once per cluster on purpose: the per-cell plan-cache footer
    // then shows the G-cluster run as 1 compile + (G-1) hits.
    ck = PlanCache::global().get_or_compile(sc, cfg.run.variant, cfg.run.cg,
                                            cfg.run.cluster.num_cores,
                                            cfg.run.cluster.tcdm_bytes);
  }
  return execute_system_kernel(*ck, sys, cfg, ios, goldens);
}

}  // namespace saris
