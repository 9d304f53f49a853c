// Unit tests: the multi-cluster System layer — HBM frontend arbitration,
// the G=1 bit-identity contract against the single-cluster run_kernel
// pipeline, tile streaming, and typed config errors.
#include <gtest/gtest.h>

#include "fault/fault_plan.hpp"
#include "runtime/plan_cache.hpp"
#include "runtime/sweep.hpp"
#include "stencil/codes.hpp"
#include "stencil/reference.hpp"
#include "system/system_runner.hpp"

namespace saris {
namespace {

/// The typed error `fn` raises, or kNone when it returns.
template <typename Fn>
SimErrc raised(Fn&& fn) {
  try {
    fn();
  } catch (const SimError& e) {
    return e.errc();
  }
  return SimErrc::kNone;
}

// ---- HbmFrontend unit behaviour -----------------------------------------

TEST(HbmFrontend, UnlimitedModeGrantsEverything) {
  MainMemory mem(4ull << 20);
  HbmFrontend hbm(mem, HbmConfig{}, /*num_ports=*/2, /*arena=*/2ull << 20,
                  /*limited=*/false);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(hbm.port(0).acquire_word());
  EXPECT_EQ(hbm.utilization(), 0.0);
}

TEST(HbmFrontend, BudgetAccruesAtConfiguredRate) {
  MainMemory mem(4ull << 20);
  // One port, one device at 1 GHz: 51.2 B/cycle = 6.4 words/cycle.
  HbmFrontend hbm(mem, HbmConfig{}, 1, 4ull << 20, /*limited=*/true);
  EXPECT_DOUBLE_EQ(HbmConfig{}.bytes_per_cycle_for_clusters(1), 51.2);
  hbm.port(0).set_manual_demand(true);
  // Before any begin_cycle there are no credits.
  EXPECT_FALSE(hbm.port(0).acquire_word());
  // Drain every credit each cycle; over 10 cycles the grant total must
  // track 51.2 B/cycle to within the credit cap (64 B bank).
  u64 granted = 0;
  for (int c = 0; c < 10; ++c) {
    hbm.begin_cycle();
    while (hbm.port(0).acquire_word()) granted += kWordBytes;
  }
  EXPECT_GE(granted, 512u - 64u);
  EXPECT_LE(granted, 512u + 64u);
}

TEST(HbmFrontend, ContendedPortsShareFairly) {
  MainMemory mem(4ull << 20);
  // Two ports on one device: 6.4 words/cycle between two always-hungry
  // clusters must split evenly over time.
  HbmFrontend hbm(mem, HbmConfig{}, 2, 2ull << 20, /*limited=*/true);
  hbm.port(0).set_manual_demand(true);
  hbm.port(1).set_manual_demand(true);
  u64 got[2] = {0, 0};
  for (int c = 0; c < 100; ++c) {
    hbm.begin_cycle();
    for (u32 g = 0; g < 2; ++g) {
      while (hbm.port(g).acquire_word()) got[g] += kWordBytes;
    }
  }
  EXPECT_NEAR(static_cast<double>(got[0]), static_cast<double>(got[1]),
              64.0);
  EXPECT_NEAR(static_cast<double>(got[0] + got[1]), 5120.0, 128.0);
  EXPECT_GT(hbm.port(0).denied_grants(), 0u);
  EXPECT_GT(hbm.utilization(), 0.9);
}

TEST(HbmFrontend, IdlePortsDonateBandwidth) {
  MainMemory mem(4ull << 20);
  HbmFrontend hbm(mem, HbmConfig{}, 2, 2ull << 20, /*limited=*/true);
  hbm.port(0).set_manual_demand(true);
  hbm.port(1).set_manual_demand(false);  // idle cluster
  u64 got = 0;
  for (int c = 0; c < 100; ++c) {
    hbm.begin_cycle();
    while (hbm.port(0).acquire_word()) got += kWordBytes;
  }
  // The hungry port gets the whole stack rate, not a fair-share half.
  EXPECT_NEAR(static_cast<double>(got), 5120.0, 128.0);
  EXPECT_EQ(hbm.port(1).granted_bytes(), 0u);
}

TEST(HbmFrontend, PortWindowIsEnforced) {
  MainMemory mem(4ull << 20);
  HbmFrontend hbm(mem, HbmConfig{}, 2, 2ull << 20, /*limited=*/false);
  u64 v = 42;
  hbm.port(1).write((2ull << 20) + 64, &v, 8);  // in port 1's arena
  u64 r = 0;
  hbm.port(1).read((2ull << 20) + 64, &r, 8);
  EXPECT_EQ(r, 42u);
  EXPECT_DEATH(hbm.port(0).write((2ull << 20) + 64, &v, 8), "arena");
  EXPECT_DEATH(hbm.port(1).read(0, &r, 8), "arena");
}

// ---- System construction ------------------------------------------------

TEST(System, ClustersShareOneMemoryAndCarryIds) {
  SystemConfig cfg;
  cfg.clusters = 3;
  System sys(cfg);
  EXPECT_EQ(sys.num_clusters(), 3u);
  EXPECT_EQ(sys.mem().size_bytes(), 3 * cfg.arena_bytes);
  for (u32 g = 0; g < 3; ++g) {
    EXPECT_EQ(sys.cluster(g).cluster_id(), g);
    EXPECT_FALSE(sys.cluster(g).owns_memory());
    EXPECT_EQ(sys.arena_base(g), g * cfg.arena_bytes);
  }
  // A system cluster has no private memory to hand out.
  EXPECT_DEATH(sys.cluster(0).mem(), "external");
}

TEST(System, JobOutsideArenaFailsFastAtPush) {
  // A job whose main-memory extent lies below the cluster's arena (e.g. an
  // overlap template someone forgot to offset) must abort at push time with
  // the job coordinates, not cycles later on a word access.
  SystemConfig cfg;
  cfg.clusters = 2;
  System sys(cfg);
  DmaJob j;
  j.to_tcdm = false;
  j.tcdm_addr = 0;
  j.mem_addr = 0;  // cluster 1's arena starts at arena_bytes
  j.row_bytes = 64;
  EXPECT_DEATH(sys.cluster(1).dma().push(j),
               "main-memory extent out of range");
  // The same job is fine on the cluster that owns [0, arena).
  sys.cluster(0).dma().push(j);
}

TEST(System, MisalignedArenaRejected) {
  SystemConfig cfg;
  cfg.clusters = 2;
  cfg.arena_bytes = MainMemory::kChunkBytes + 4096;
  EXPECT_EQ(raised([&] { System sys(cfg); }), SimErrc::kBadConfig);
}

// ---- the G=1 bit-identity contract --------------------------------------

TEST(SystemRunner, OneClusterBitIdenticalToRunKernel) {
  for (const char* name : {"jacobi_2d", "star3d2r"}) {
    const StencilCode& sc = code_by_name(name);
    for (KernelVariant v : {KernelVariant::kBase, KernelVariant::kSaris}) {
      RunConfig rcfg;
      rcfg.variant = v;
      RunMetrics solo = run_kernel(sc, rcfg);

      SystemRunConfig scfg;
      scfg.clusters = 1;
      scfg.run = rcfg;
      SystemRunMetrics sim = run_system_kernel(sc, scfg);

      ASSERT_EQ(sim.tiles_metrics.size(), 1u);
      std::string why;
      EXPECT_TRUE(metrics_bit_identical(solo, sim.tiles_metrics[0][0], &why))
          << sc.name << "/" << variant_name(v) << ": " << why;
      EXPECT_EQ(sim.compute_cycles, solo.cycles);
      // Unlimited frontend at G=1: no grants denied, no utilization books.
      EXPECT_EQ(sim.hbm_denied_grants, 0u);
      EXPECT_EQ(sim.hbm_utilization, 0.0);
    }
  }
}

TEST(SystemRunner, OneClusterTimelineMatchesRunKernel) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  RunConfig rcfg;
  rcfg.record_timeline = true;
  RunMetrics solo = run_kernel(sc, rcfg);
  SystemRunConfig scfg;
  scfg.clusters = 1;
  scfg.run = rcfg;
  SystemRunMetrics sim = run_system_kernel(sc, scfg);
  ASSERT_FALSE(solo.fpu_timeline.empty());
  EXPECT_EQ(sim.tiles_metrics[0][0].fpu_timeline, solo.fpu_timeline);
}

// ---- multi-cluster contention -------------------------------------------

TEST(SystemRunner, ContentionStretchesTileLatency) {
  // jacobi_2d is the most bandwidth-hungry code per compute cycle: four
  // clusters sharing one HBM device must finish their tiles later than an
  // uncontended single cluster, and the frontend must record backpressure.
  const StencilCode& sc = code_by_name("jacobi_2d");
  SystemRunConfig solo;
  solo.clusters = 1;
  SystemRunMetrics one = run_system_kernel(sc, solo);

  SystemRunConfig packed;
  packed.clusters = 4;  // one device: fair share 12.8 B/cycle each
  SystemRunMetrics four = run_system_kernel(sc, packed);

  EXPECT_GT(four.hbm_denied_grants, 0u);
  EXPECT_GT(four.cycles, one.cycles);
  // Every cluster still verified against its own shard's golden reference
  // (run_system_kernel would have aborted otherwise) and moved the same
  // traffic.
  for (const std::vector<RunMetrics>& tiles : four.tiles_metrics) {
    EXPECT_EQ(tiles[0].dma_bytes, one.tiles_metrics[0][0].dma_bytes);
  }
}

// ---- HBM rate fixed point (utilization can never exceed the configured
// ---- bandwidth) --------------------------------------------------------

TEST(HbmFrontend, RateFpIsFlooredFromTheConfiguredBandwidth) {
  HbmConfig hbm;  // 51.2 B/cycle at one device: 51.2 * 65536 = 3355443.2
  EXPECT_EQ(hbm.bytes_per_cycle_fp_for_clusters(1), 3355443u);
  // A rate whose 16.16 fraction rounds UP under llround: 3.3 Gb/s/pin is
  // 52.8 B/cycle = 3460300.8 in 16.16 — the old llround granted 3460301
  // (more than configured) and let utilization() exceed 1.
  hbm.gbps_per_pin = 3.3;
  EXPECT_EQ(hbm.bytes_per_cycle_fp_for_clusters(1), 3460300u);
  EXPECT_LE(static_cast<double>(hbm.bytes_per_cycle_fp_for_clusters(1)),
            hbm.bytes_per_cycle_for_clusters(1) * 65536.0);
}

TEST(HbmFrontend, UtilizationNeverExceedsOneOnSaturatedRuns) {
  for (double gbps : {3.2, 3.3, 1.7}) {
    HbmConfig hbm;
    hbm.gbps_per_pin = gbps;
    MainMemory mem(4ull << 20);
    HbmFrontend fe(mem, hbm, 1, 4ull << 20, /*limited=*/true);
    fe.port(0).set_manual_demand(true);
    // Drain every credit every cycle for long enough that a rate biased
    // even half a 16.16 ulp high would push the ratio past 1.
    for (int c = 0; c < 200000; ++c) {
      fe.begin_cycle();
      while (fe.port(0).acquire_word()) {
      }
    }
    EXPECT_LE(fe.utilization(), 1.0) << "gbps_per_pin=" << gbps;
    EXPECT_GT(fe.utilization(), 0.99) << "gbps_per_pin=" << gbps;
  }
}

// ---- multi-tile streaming ---------------------------------------------

TEST(SystemRunner, StreamedTilesBitIdenticalToRunKernel) {
  // Every tile after the first runs on a fresh cluster; with G=1 (no
  // contention) every tile must be bit-identical to a fresh run_kernel of
  // the same (seed, kernel) — the tile-streaming contract.
  const StencilCode& sc = code_by_name("jacobi_2d");
  for (KernelVariant v : {KernelVariant::kBase, KernelVariant::kSaris}) {
    SystemRunConfig cfg;
    cfg.clusters = 1;
    cfg.tiles = 3;
    cfg.run.variant = v;
    SystemRunMetrics sm = run_system_kernel(sc, cfg);
    ASSERT_EQ(sm.tiles, 3u);
    ASSERT_EQ(sm.tiles_metrics[0].size(), 3u);
    for (u32 t = 0; t < 3; ++t) {
      RunConfig rcfg;
      rcfg.variant = v;
      rcfg.seed = system_tile_seed(1, 0, t);
      RunMetrics fresh = run_kernel(sc, rcfg);
      std::string why;
      EXPECT_TRUE(metrics_bit_identical(fresh, sm.tiles_metrics[0][t], &why))
          << variant_name(v) << " tile " << t << ": " << why;
    }
  }
}

TEST(SystemRunner, TileStampsAreConsistent) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  SystemRunConfig cfg;
  cfg.clusters = 2;
  cfg.tiles = 3;
  SystemRunMetrics sm = run_system_kernel(sc, cfg);
  Cycle last = 0;
  for (u32 g = 0; g < 2; ++g) {
    for (u32 t = 0; t < 3; ++t) {
      // Every stamp recorded (no "not yet" sentinel leaks), windows close
      // before drains, and restaging is instantaneous: tile t starts at the
      // system cycle tile t-1 completed.
      EXPECT_GE(sm.tiles_window[g][t], 1u);
      EXPECT_LE(sm.tiles_window[g][t], sm.tiles_latency[g][t]);
      EXPECT_LT(sm.tiles_latency[g][t], 100'000'000u);
      EXPECT_EQ(sm.tiles_done_sys[g][t],
                sm.tiles_start[g][t] + sm.tiles_latency[g][t]);
      if (t > 0) {
        EXPECT_EQ(sm.tiles_start[g][t], sm.tiles_done_sys[g][t - 1]);
        EXPECT_EQ(sm.reload_gap(g, t),
                  sm.tiles_latency[g][t - 1] - sm.tiles_window[g][t - 1]);
      }
    }
    last = std::max(last, sm.tiles_done_sys[g][2]);
  }
  EXPECT_EQ(sm.cycles, last);
  EXPECT_GE(sm.mean_reload_gap(), 0.0);
  // Distinct per-(cluster, tile) seeds actually reached the data.
  EXPECT_NE(sm.tiles_metrics[0][0].max_rel_err,
            sm.tiles_metrics[0][1].max_rel_err);
  EXPECT_NE(sm.tiles_metrics[0][0].max_rel_err,
            sm.tiles_metrics[1][0].max_rel_err);
  // Utilization ratios are measured against the dealt budget: <= 1 always.
  EXPECT_LE(sm.hbm_utilization, 1.0);
  EXPECT_LE(sm.hbm_util_first_tile, 1.0);
  EXPECT_LE(sm.hbm_util_steady, 1.0);
  EXPECT_GT(sm.hbm_util_steady, 0.0);
}

// ---- run_until edge cases ----------------------------------------------

TEST(System, RunUntilImmediateDoneNeverTicksNorCallsAfterTick) {
  // A cluster whose done(g) holds before its first tick must not be ticked
  // and must not reach after_tick — callers seed such clusters' metrics
  // explicitly instead of reading stale zeros (the old cycle-0 sentinel
  // bug deflated system cycle counts through exactly this path).
  SystemConfig cfg;
  cfg.clusters = 2;
  System sys(cfg);
  u32 after_ticks = 0;
  Cycle elapsed = sys.run_until([](u32) { return true; },
                                /*max_cycles=*/10, "immediate",
                                [&](u32) { ++after_ticks; });
  EXPECT_EQ(elapsed, 0u);
  EXPECT_EQ(after_ticks, 0u);
  EXPECT_EQ(sys.cluster(0).now(), 0u);
}

TEST(SystemErrors, SerialOverrunRaisesTheLabeledTypedError) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  SystemRunConfig cfg;
  cfg.clusters = 2;
  cfg.run.max_cycles = 50;
  try {
    run_system_kernel(sc, cfg);
    FAIL() << "expected SimError(kMaxCyclesExceeded)";
  } catch (const SimError& e) {
    EXPECT_EQ(e.errc(), SimErrc::kMaxCyclesExceeded);
    EXPECT_NE(std::string(e.what()).find("did not finish within"),
              std::string::npos)
        << e.what();
  }
}

TEST(SystemErrors, ZeroTilesClustersOrBudgetRaisesBadConfig) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  SystemRunConfig no_tiles;
  no_tiles.tiles = 0;
  SystemRunConfig no_clusters;
  no_clusters.clusters = 0;
  SystemRunConfig no_budget;
  no_budget.run.max_cycles = 0;
  // The retired ticking modes accept only their defaults.
  SystemRunConfig parallel;
  parallel.parallel = true;
  SystemRunConfig batched;
  batched.batch = 8;
  // Bad HBM configs: no clock at G=1, where the frontend passes through;
  // at G=2, where it arbitrates, no device and a bandwidth whose 16.16 rate
  // floors to zero.
  SystemRunConfig no_clock;
  no_clock.hbm.freq_ghz = 0.0;
  SystemRunConfig no_devices;
  no_devices.clusters = 2;
  no_devices.hbm.devices = 0;
  SystemRunConfig zero_rate;
  zero_rate.clusters = 2;
  zero_rate.hbm.gbps_per_pin = 1e-9;
  for (const SystemRunConfig& cfg : {no_tiles, no_clusters, no_budget,
                                     parallel, batched, no_clock,
                                     no_devices, zero_rate}) {
    EXPECT_EQ(raised([&] { run_system_kernel(sc, cfg); }), SimErrc::kBadConfig);
  }
}

TEST(SystemErrors, ASecondRunOnOneSystemRaisesBadConfig) {
  // A System starts at power-on once: execute_system_kernel takes one that
  // has not run, whether the first run ticked or quarantined every cluster
  // before its first tick.
  const StencilCode& sc = code_by_name("jacobi_2d");
  SystemRunConfig cfg;
  cfg.clusters = 2;
  std::shared_ptr<const CompiledKernel> ck =
      PlanCache::global().get_or_compile(sc, cfg.run.variant, cfg.run.cg,
                                         cfg.run.cluster.num_cores,
                                         cfg.run.cluster.tcdm_bytes);
  auto run = [&](System& sys, const SystemRunConfig& rcfg) {
    std::vector<KernelIO> ios(cfg.clusters);
    for (u32 g = 0; g < cfg.clusters; ++g) {
      ios[g].inputs = seeded_inputs(sc, system_tile_seed(cfg.run.seed, g, 0));
      ios[g].coeffs = sc.default_coeffs();
    }
    return execute_system_kernel(*ck, sys, rcfg, ios);
  };
  FaultPlan stall_all;
  for (u32 g = 0; g < cfg.clusters; ++g) {
    stall_all.add({FaultKind::kClusterStall, g, 0, 1, 0, 1});
  }
  for (FaultPlan* plan : {static_cast<FaultPlan*>(nullptr), &stall_all}) {
    SystemConfig scfg;
    scfg.clusters = cfg.clusters;
    System sys(scfg);
    SystemRunConfig first = cfg;
    first.run.faults = plan;
    EXPECT_EQ(run(sys, first).tiles_ok, plan ? 0u : cfg.clusters);
    EXPECT_EQ(raised([&] { run(sys, cfg); }), SimErrc::kBadConfig);
  }
}

TEST(SystemRunner, ShardSeedsAreDistinctAndAnchored) {
  // Cluster 0 keeps the run seed verbatim (the G=1 bit-identity anchor);
  // other shards get distinct, well-separated streams.
  EXPECT_EQ(system_cluster_seed(1, 0), 1u);
  EXPECT_NE(system_cluster_seed(1, 1), system_cluster_seed(1, 2));
  EXPECT_NE(system_cluster_seed(1, 1), 1u);
  // Tile 0 anchors to the cluster seed; later tiles get distinct streams.
  EXPECT_EQ(system_tile_seed(1, 0, 0), 1u);
  EXPECT_EQ(system_tile_seed(1, 2, 0), system_cluster_seed(1, 2));
  EXPECT_NE(system_tile_seed(1, 0, 1), system_tile_seed(1, 0, 2));
  EXPECT_NE(system_tile_seed(1, 1, 1), system_tile_seed(1, 0, 1));
  // Shards see different data, so their compute windows generally differ
  // from byte-identical clones (spot-check the run actually used them).
  const StencilCode& sc = code_by_name("jacobi_2d");
  SystemRunConfig cfg;
  cfg.clusters = 2;
  SystemRunMetrics m = run_system_kernel(sc, cfg);
  EXPECT_NE(m.tiles_metrics[0][0].max_rel_err,
            m.tiles_metrics[1][0].max_rel_err);
}

}  // namespace
}  // namespace saris
