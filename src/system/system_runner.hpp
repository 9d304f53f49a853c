// Multi-cluster run pipeline: the System-level counterpart of
// runtime/kernel_runner.hpp.
//
// A system run shards the scale-out tile grid across G clusters: every
// cluster executes the same CompiledKernel on its own tiles (its own shard's
// seeded data), all clusters tick in one interleaved cycle loop, and their
// steady-state overlap-DMA traffic contends for the shared HBM bandwidth
// through the HbmFrontend — so the per-tile latency it measures includes
// real cross-cluster interference, not the analytic fair-share assumption.
//
// With tiles = T > 1 every cluster streams T tiles back-to-back: when a
// cluster's tile completes (cores halted, DMA drained) the System builds a
// fresh cluster in its place (System::fresh_cluster: same HBM port and
// cluster id), the next tile's data and programs are staged there with that
// (cluster, tile)'s seed, and its arena-offset overlap DMA is queued — all
// while the other clusters keep ticking. Drain tails and reloads therefore
// overlap across clusters and the HBM frontend sees the paper's sustained
// steady-state contention instead of one tile's transient.
//
// Every cluster runs each tile through its own KernelRun
// (runtime/kernel_runner.hpp), the class execute_kernel loops too, so the
// fault hooks, FPU timeline, compute-window close and wall-clock watchdog
// behave as in a single-cluster run. Two budgets guard a system run: the
// hang guard, run.max_cycles × tiles system cycles for the whole run, and
// the wall-clock watchdog, run.max_wall_seconds for each tile.
//
// Contracts (tests/test_system.cpp):
//  - clusters = 1 is bit-identical to the single-cluster run_kernel path
//    (same seed, same artifact, same cycle-for-cycle schedule), and every
//    tile t of a 1-cluster run is bit-identical to a fresh run_kernel with
//    system_tile_seed(seed, 0, t) — the tile-streaming contract.
// Fault handling: a run-level SimError on one cluster (injected stall,
// verify miss, wall-clock timeout, bad staging) does not tear the system
// run down. Under the default kQuarantine policy the faulted cluster is
// quarantined mid-run — it stops ticking, its HBM demand is forced off so
// its bandwidth share flows to the survivors, and its remaining tiles are
// abandoned — while every other cluster finishes its tile queue;
// SystemRunMetrics then reports the degraded shard set (quarantined flags,
// per-cluster errors, tiles_ok). kRaise instead rethrows the first faulted
// cluster's error (in cluster-id order, deterministically) after the
// survivors finish.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/sim_error.hpp"
#include "runtime/kernel_runner.hpp"
#include "system/system.hpp"

namespace saris {

/// What execute_system_kernel does with a cluster's run-level SimError.
enum class SystemFaultPolicy {
  kRaise,       ///< survivors finish, then the first error (by cluster id)
                ///< is rethrown to the caller
  kQuarantine,  ///< degrade gracefully: record the error, finish the rest
};

struct SystemRunConfig {
  u32 clusters = 1;  ///< G: tile-grid shards sharing the HBM
  /// Per-cluster run configuration (variant, codegen options, cluster
  /// shape, seed, verification, budgets). seed seeds cluster 0's first
  /// tile; tile t of cluster g uses system_tile_seed(seed, g, t). The hang
  /// guard (run.max_cycles) budgets each tile round: the whole run must
  /// finish within run.max_cycles * tiles system cycles, or it raises
  /// kMaxCyclesExceeded. The wall-clock watchdog (run.max_wall_seconds)
  /// budgets each tile; a tile that exceeds it raises kWallClockTimeout,
  /// handled per on_error like any run-level error.
  RunConfig run{};
  HbmConfig hbm{};
  /// Arbitrate shared-memory bandwidth (see SystemConfig::hbm_limit; forced
  /// off at G=1 either way).
  bool hbm_limit = true;
  /// Retired: the System ticks its clusters in one serial loop. Kept for
  /// callers that assign the default; true raises kBadConfig.
  bool parallel = false;
  u64 arena_bytes = 16ull << 20;  ///< per-cluster shared-memory window
  /// T: tiles streamed back-to-back through every cluster (>= 1). Tile 0 of
  /// each cluster is staged up front; each later tile is staged on a fresh
  /// cluster the moment the previous tile drains.
  u32 tiles = 1;
  /// Retired: the System deals credits and ticks every cycle. Kept for
  /// callers that assign the default; any value but 1 raises kBadConfig.
  u32 batch = 1;
  /// Reaction to a cluster's run-level SimError (see the file comment).
  /// run.faults, when set, is the system-wide fault plan: it drives the
  /// HBM frontend, every cluster's DMA, and the per-cluster stall/bit-flip
  /// hooks, addressed in system cycles; it is rewound at run entry.
  SystemFaultPolicy on_error = SystemFaultPolicy::kQuarantine;
};

/// "No cycle recorded yet" sentinel of the per-tile cycle matrices. 0 is a
/// legitimate value (a cluster can be done before its first tick and must
/// then be seeded with real zeros, not left on a magic 0 that reads as
/// "pending"), so the sentinel is the one cycle count no finite run can
/// reach.
inline constexpr Cycle kNotYet = ~Cycle{0};

struct SystemRunMetrics {
  // ---- per-(cluster, tile) matrix, [g][t] ----
  u32 tiles = 1;
  /// Full RunMetrics per tile (tile t of cluster g verified against its
  /// own seed's golden reference). A tile's step_wall_seconds spans its
  /// staging to its halt, other clusters' ticks included.
  std::vector<std::vector<RunMetrics>> tiles_metrics;
  /// Cluster-local compute window of each tile (staging -> own halt).
  std::vector<std::vector<Cycle>> tiles_window;
  /// Cluster-local tile latency (staging -> halt + DMA drain): the
  /// simulated analogue of the analytic t_tile.
  std::vector<std::vector<Cycle>> tiles_latency;
  /// System cycle at which each tile was staged / completed. Restaging is a
  /// zero-time host operation, so tiles_start[g][t] ==
  /// tiles_done_sys[g][t-1].
  std::vector<std::vector<Cycle>> tiles_start;
  std::vector<std::vector<Cycle>> tiles_done_sys;
  /// HBM bytes granted to / word grants denied for the cluster's port
  /// during each tile (0 when the frontend is pass-through).
  std::vector<std::vector<u64>> tiles_hbm_bytes;
  std::vector<std::vector<u64>> tiles_hbm_denied;

  Cycle cycles = 0;          ///< system window: last tiles_done_sys stamp
  Cycle compute_cycles = 0;  ///< max over every tile's compute window
  u64 flops = 0;             ///< summed over all clusters and tiles
  u64 dma_bytes = 0;         ///< summed over all clusters and tiles
  double step_wall_seconds = 0.0;

  // HBM frontend statistics (all zero when the frontend is pass-through).
  /// Granted fraction of the bandwidth offered over the system window
  /// (<= 1 by construction — measured against the frontend's fixed-point
  /// budget).
  double hbm_utilization = 0.0;
  u64 hbm_granted_bytes = 0;
  u64 hbm_denied_grants = 0;  ///< word grants refused (backpressure events)
  /// Phase split of hbm_utilization (both <= 1, measured against the
  /// frontend's fixed-point budget over windows that contain their bytes):
  /// first-tile = tile-0 traffic over [0, last cluster's tile-0
  /// completion]; steady = tiles >= 2 traffic over [first cluster's
  /// tile-0 completion, end] (0 when tiles < 2; clamped — credits banked
  /// just before the window, at most one cap per port, may be spent inside
  /// it). Steady-state
  /// runs keep every cluster's reload traffic in flight, so
  /// hbm_util_steady is the number the paper's scale-out contention story
  /// is about.
  double hbm_util_first_tile = 0.0;
  double hbm_util_steady = 0.0;

  // ---- graceful degradation (all empty/zero on a fault-free run with
  // ---- every cluster healthy) ----
  /// Per-cluster quarantine flag: 1 when cluster g was taken out of the run
  /// by a run-level error. Its unfinished tiles keep the kNotYet sentinel
  /// (~Cycle{0}) in the cycle matrices and default RunMetrics entries.
  std::vector<u8> quarantined;
  /// Per-cluster error code / diagnostic (kNone / "" for healthy clusters).
  std::vector<SimErrc> error_codes;
  std::vector<std::string> errors;
  u32 tiles_ok = 0;  ///< tiles that completed and verified, across clusters

  /// True when at least one cluster was quarantined — the run completed in
  /// degraded mode and aggregate metrics cover the surviving shards only.
  bool degraded() const;
  u32 healthy_clusters() const;

  /// Inter-tile reload gap: cycles cluster g spends between tile t-1's
  /// compute-window close and tile t's staging (t >= 1) — the DMA drain
  /// tail the reload waits out, since restaging itself is instantaneous.
  /// Equals tiles_latency[g][t-1] - tiles_window[g][t-1].
  Cycle reload_gap(u32 g, u32 t) const;
  /// Mean reload gap over every (g, t >= 1) pair; 0 when tiles < 2.
  double mean_reload_gap() const;

  /// System FPU utilization: useful FPU issues (all tiles) per core-cycle
  /// of the system window.
  double fpu_util() const;
};

/// The seed for cluster g's shard of a system run seeded with `seed`
/// (cluster 0 keeps `seed` itself — the G=1 bit-identity anchor).
u64 system_cluster_seed(u64 seed, u32 g);

/// The seed for tile t of cluster g; t = 0 reduces to
/// system_cluster_seed(seed, g), so single-tile runs are unchanged.
u64 system_tile_seed(u64 seed, u32 g, u32 t);

/// Execute stage: stage ios[g * cfg.tiles + t] into cluster g as its tile
/// t, run the interleaved cycle loop, verify each tile against
/// goldens[g * cfg.tiles + t] (or recompute from its io), extract per-tile
/// metrics. `sys` must not have run (a System runs once), and each tile
/// after the first runs on sys.fresh_cluster(g). Raises kBadConfig when
/// tiles < 1 or run.max_cycles is 0, when parallel is set or batch is not
/// 1, when `sys` has run or has other than cfg.clusters clusters, when ios
/// has other than one entry per (cluster, tile), or when goldens is neither
/// empty (= all null) nor one per (cluster, tile).
SystemRunMetrics execute_system_kernel(const CompiledKernel& ck, System& sys,
                                       const SystemRunConfig& cfg,
                                       std::vector<KernelIO>& ios,
                                       const std::vector<const Grid<>*>&
                                           goldens = {});

/// Run cfg.tiles time iterations of `sc` per cluster on a G-cluster system
/// with seeded pseudo-random per-(cluster, tile) data; compiles once
/// through the global PlanCache (fetched per cluster, so the cache footer
/// shows 1 compile + G-1 hits for the cell) and reuses memoized golden
/// references per tile seed.
SystemRunMetrics run_system_kernel(const StencilCode& sc,
                                   const SystemRunConfig& cfg);

}  // namespace saris
