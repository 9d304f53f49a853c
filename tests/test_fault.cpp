// Unit tests: the fault-injection harness and the typed-error machinery
// around it — the determinism contracts of fault/fault_plan.hpp, the
// fault-isolated sweep engine, and the System runner's graceful
// degradation.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/run_context.hpp"
#include "common/sim_error.hpp"
#include "fault/fault_plan.hpp"
#include "runtime/kernel_runner.hpp"
#include "runtime/sweep.hpp"
#include "stencil/codes.hpp"
#include "system/system_runner.hpp"

namespace saris {
namespace {

/// Expect `fn` to raise a SimError with the given code whose what()
/// contains `needle`; returns the error for further field checks.
template <typename Fn>
SimError expect_sim_error(Fn&& fn, SimErrc errc, const std::string& needle) {
  try {
    fn();
  } catch (const SimError& e) {
    EXPECT_EQ(e.errc(), errc) << e.what();
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
    return e;
  }
  ADD_FAILURE() << "expected SimError(" << sim_errc_name(errc)
                << "), nothing was thrown";
  return SimError(SimErrc::kNone, 0, "");
}

/// A bit-flip payload for a single-input code: word index into the staged
/// input tile in the high bits, flipped bit index in the low 6.
u64 bitflip_payload(u64 word, u32 bit) { return (word << 6) | bit; }

// ---- FaultPlan determinism ---------------------------------------------

TEST(FaultPlan, EmptyPlanIsInert) {
  FaultPlan p;
  EXPECT_TRUE(p.empty());
  EXPECT_FALSE(p.dma_deny(0, 100));
  EXPECT_EQ(p.hbm_keep_percent(100), 100u);
  EXPECT_FALSE(p.stall_due(0, 100));
  u64 payload = 0;
  EXPECT_FALSE(p.take_bitflip(0, 100, &payload));
  EXPECT_TRUE(p.trace().empty());
}

TEST(FaultPlan, StormIsAPureFunctionOfItsArguments) {
  FaultStormConfig cfg;
  cfg.clusters = 3;
  cfg.hbm_throttles = 2;
  cfg.dma_word_errors = 3;
  cfg.tcdm_bitflips = 2;
  cfg.cluster_stalls = 1;
  FaultPlan a = FaultPlan::storm(cfg, 42);
  FaultPlan b = FaultPlan::storm(cfg, 42);
  // Drive both through the same query sequence; the fired traces must be
  // identical (events, order, payloads).
  for (Cycle t = 0; t < cfg.horizon + cfg.max_duration; t += 7) {
    for (u32 g = 0; g < cfg.clusters; ++g) {
      a.dma_deny(g, t);
      b.dma_deny(g, t);
      a.stall_due(g, t);
      b.stall_due(g, t);
      u64 pa = 0, pb = 0;
      while (a.take_bitflip(g, t, &pa)) {
      }
      while (b.take_bitflip(g, t, &pb)) {
      }
    }
    a.hbm_keep_percent(t);
    b.hbm_keep_percent(t);
  }
  EXPECT_FALSE(a.trace().empty());
  EXPECT_EQ(a.trace(), b.trace());
  // A different seed produces a different storm.
  FaultPlan c = FaultPlan::storm(cfg, 43);
  for (Cycle t = 0; t < cfg.horizon + cfg.max_duration; t += 7) {
    for (u32 g = 0; g < cfg.clusters; ++g) {
      c.dma_deny(g, t);
      c.stall_due(g, t);
      u64 p = 0;
      while (c.take_bitflip(g, t, &p)) {
      }
    }
    c.hbm_keep_percent(t);
  }
  EXPECT_NE(a.trace(), c.trace());
}

TEST(FaultPlan, AttemptFilteringExpiresEveryEvent) {
  FaultStormConfig cfg;
  cfg.clusters = 2;
  cfg.dma_word_errors = 4;
  cfg.cluster_stalls = 2;
  cfg.max_persistence = 2;
  EXPECT_FALSE(FaultPlan::storm(cfg, 9).empty());
  // Every event persists at most max_persistence attempts, so attempt
  // number max_persistence sees none of them.
  EXPECT_TRUE(FaultPlan::storm(cfg, 9, cfg.max_persistence).empty());
}

TEST(FaultPlan, RewindReplaysTheSameTrace) {
  FaultPlan p;
  p.add({FaultKind::kDmaWordError, 0, 10, 5, 0, 1});
  p.add({FaultKind::kClusterStall, 1, 20, 1, 0, 1});
  auto drive = [&] {
    for (Cycle t = 0; t < 40; ++t) {
      p.dma_deny(0, t);
      p.stall_due(1, t);
    }
    return p.trace();
  };
  std::vector<FiredFault> first = drive();
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(p.denied_words(0), 5u);
  p.rewind();
  EXPECT_TRUE(p.trace().empty());
  EXPECT_EQ(p.denied_words(0), 0u);
  EXPECT_EQ(drive(), first);
}

// ---- disabled faults are provably inert --------------------------------

TEST(FaultBitIdentity, NullAndEmptyPlansMatchSingleCluster) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  RunMetrics base = run_kernel(sc, cfg);

  FaultPlan empty;
  RunConfig with_plan = cfg;
  with_plan.faults = &empty;
  RunMetrics hooked = run_kernel(sc, with_plan);

  std::string why;
  EXPECT_TRUE(metrics_bit_identical(base, hooked, &why)) << why;
  EXPECT_TRUE(empty.trace().empty());
}

TEST(FaultBitIdentity, NullAndEmptyPlansMatchSystemRun) {
  SystemRunConfig cfg;
  cfg.clusters = 2;
  cfg.tiles = 2;
  const StencilCode& sc = code_by_name("jacobi_2d");
  SystemRunMetrics base = run_system_kernel(sc, cfg);

  FaultPlan empty;
  SystemRunConfig hooked_cfg = cfg;
  hooked_cfg.run.faults = &empty;
  SystemRunMetrics hooked = run_system_kernel(sc, hooked_cfg);

  EXPECT_EQ(base.cycles, hooked.cycles);
  EXPECT_FALSE(hooked.degraded());
  EXPECT_EQ(hooked.tiles_ok, cfg.clusters * cfg.tiles);
  std::string why;
  for (u32 g = 0; g < cfg.clusters; ++g) {
    for (u32 t = 0; t < cfg.tiles; ++t) {
      EXPECT_TRUE(metrics_bit_identical(base.tiles_metrics[g][t],
                                        hooked.tiles_metrics[g][t], &why))
          << "g=" << g << " t=" << t << ": " << why;
    }
  }
  EXPECT_TRUE(empty.trace().empty());
}

// ---- single-cluster fault effects --------------------------------------

TEST(FaultEffects, DmaWordErrorsSlowTheRunButItStillVerifies) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  RunMetrics base = run_kernel(sc, cfg);

  FaultPlan plan;
  plan.add({FaultKind::kDmaWordError, 0, 1, 400, 0, 1});
  RunConfig faulty = cfg;
  faulty.faults = &plan;
  RunMetrics m = run_kernel(sc, faulty);

  EXPECT_TRUE(plan.fired(FaultKind::kDmaWordError, 0));
  EXPECT_GT(plan.denied_words(0), 0u);
  // Every denied word is retried later: the run completes, verifies, and
  // moves exactly the same bytes — just over a longer drain.
  EXPECT_EQ(m.dma_bytes, base.dma_bytes);
  EXPECT_GE(m.cycles, base.cycles);
}

TEST(FaultEffects, BitFlipRaisesInjectedFaultWithSeedAndTolerance) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  FaultPlan plan;
  // Flip the exponent MSB (bit 62) of a mid-tile input word right after
  // staging: guaranteed far beyond any verification tolerance.
  plan.add({FaultKind::kTcdmBitFlip, 0, 2, 1, bitflip_payload(500, 62), 1});
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  cfg.faults = &plan;
  SimError e = expect_sim_error([&] { run_kernel(sc, cfg); },
                                SimErrc::kInjectedFault, "tolerance");
  EXPECT_TRUE(plan.fired(FaultKind::kTcdmBitFlip, 0));
  EXPECT_EQ(e.code(), "jacobi_2d");
  EXPECT_EQ(e.variant(), "saris");
  EXPECT_EQ(e.seed(), RunConfig{}.seed);
  // The verify diagnostic names the seed, so the line alone reproduces it.
  EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos);
  EXPECT_TRUE(e.retryable());  // transient corruption clears on re-run
}

TEST(FaultEffects, StallRaisesTypedClusterStall) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  FaultPlan plan;
  plan.add({FaultKind::kClusterStall, 0, 200, 1, 0, 1});
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  cfg.faults = &plan;
  SimError e = expect_sim_error([&] { run_kernel(sc, cfg); },
                                SimErrc::kClusterStall, "stall");
  EXPECT_TRUE(e.retryable());
  EXPECT_EQ(e.cycle(), 200u);  // latched at the addressed cycle
}

TEST(FaultEffects, WallClockWatchdogRaisesTimeout) {
  const StencilCode& sc = code_by_name("ac_iso_cd");
  RunConfig cfg;
  cfg.variant = KernelVariant::kBase;  // long enough to hit the coarse check
  cfg.max_wall_seconds = 1e-9;
  SimError e = expect_sim_error([&] { run_kernel(sc, cfg); },
                                SimErrc::kWallClockTimeout, "wall");
  EXPECT_TRUE(e.retryable());  // host load, not simulated behavior
}

// ---- fault-isolated sweeps ---------------------------------------------

/// The paper matrix with stall storms injected into the jobs at `faulty`
/// indices (transient events: persistence 1).
std::vector<SweepJob> matrix_with_faults(const std::vector<u32>& faulty) {
  std::vector<SweepJob> jobs = matrix_jobs();
  for (u32 i : faulty) {
    jobs[i].inject_faults = true;
    jobs[i].storm.clusters = 1;
    jobs[i].storm.cluster_stalls = 1;
    jobs[i].storm.horizon = 500;  // well inside every cell's run
    jobs[i].storm.max_persistence = 1;
    jobs[i].fault_seed = 1000 + i;
  }
  return jobs;
}

TEST(FaultSweep, IsolatePolicyKeepsTheRestOfTheMatrixAlive) {
  // The acceptance scenario: a 20-cell sweep with 3 injected-fault cells
  // returns 17 ok results and 3 typed errors.
  const std::vector<u32> faulty = {3, 9, 17};
  std::vector<SweepJob> jobs = matrix_with_faults(faulty);
  ASSERT_EQ(jobs.size(), 20u);

  SweepOptions opts;
  opts.threads = 2;
  std::vector<SweepResult> rs = run_sweep_isolated(jobs, opts);
  ASSERT_EQ(rs.size(), jobs.size());

  u32 ok = 0, failed = 0;
  for (u32 i = 0; i < rs.size(); ++i) {
    bool injected =
        std::find(faulty.begin(), faulty.end(), i) != faulty.end();
    EXPECT_EQ(rs[i].ok, !injected) << "job " << i << ": " << rs[i].error;
    EXPECT_EQ(rs[i].attempts, 1u);
    if (rs[i].ok) {
      ++ok;
      EXPECT_GT(rs[i].metrics.cycles, 0u);
      EXPECT_EQ(rs[i].error_code, SimErrc::kNone);
    } else {
      ++failed;
      EXPECT_EQ(rs[i].error_code, SimErrc::kClusterStall) << rs[i].error;
      ASSERT_NE(rs[i].fault, nullptr);
      EXPECT_EQ(rs[i].fault->code(), jobs[i].code->name);
    }
  }
  EXPECT_EQ(ok, 17u);
  EXPECT_EQ(failed, 3u);
}

TEST(FaultSweep, ParallelOutcomesMatchSerialOutcomes) {
  const std::vector<u32> faulty = {3, 9, 17};
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  std::vector<SweepResult> a =
      run_sweep_isolated(matrix_with_faults(faulty), serial);
  std::vector<SweepResult> b =
      run_sweep_isolated(matrix_with_faults(faulty), parallel);
  ASSERT_EQ(a.size(), b.size());
  std::string why;
  for (u32 i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].ok, b[i].ok) << "job " << i;
    EXPECT_EQ(a[i].attempts, b[i].attempts) << "job " << i;
    EXPECT_EQ(a[i].error_code, b[i].error_code) << "job " << i;
    EXPECT_EQ(a[i].error, b[i].error) << "job " << i;
    if (a[i].ok) {
      EXPECT_TRUE(metrics_bit_identical(a[i].metrics, b[i].metrics, &why))
          << "job " << i << ": " << why;
    }
  }
}

TEST(FaultSweep, BoundedRetryClearsTransientFaults) {
  // A persistence-1 stall fires on attempt 0 and expires on attempt 1:
  // with two attempts allowed, the job deterministically recovers.
  std::vector<SweepJob> jobs = matrix_with_faults({0});
  jobs.resize(1);
  SweepOptions opts;
  opts.max_attempts = 2;
  std::vector<SweepResult> rs = run_sweep_isolated(jobs, opts);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_TRUE(rs[0].ok) << rs[0].error;
  EXPECT_EQ(rs[0].attempts, 2u);
  EXPECT_GT(rs[0].metrics.cycles, 0u);
}

TEST(FaultSweep, StickyFaultExhaustsItsRetryBudget) {
  // A hand-authored plan on cfg.faults replays identically every attempt
  // (the sweep rewinds it): the job fails all attempts.
  FaultPlan plan;
  plan.add({FaultKind::kClusterStall, 0, 200, 1, 0, 3});
  std::vector<SweepJob> jobs = matrix_jobs();
  jobs.resize(1);
  jobs[0].cfg.faults = &plan;
  SweepOptions opts;
  opts.max_attempts = 2;
  std::vector<SweepResult> rs = run_sweep_isolated(jobs, opts);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_FALSE(rs[0].ok);
  EXPECT_EQ(rs[0].attempts, 2u);
  EXPECT_EQ(rs[0].error_code, SimErrc::kClusterStall);
}

TEST(FaultSweep, NonRetryableErrorFailsWithoutRetry) {
  std::vector<SweepJob> jobs = matrix_jobs();
  jobs.resize(1);
  jobs[0].cfg.max_cycles = 64;  // trip the hang guard immediately
  SweepOptions opts;
  opts.max_attempts = 3;
  std::vector<SweepResult> rs = run_sweep_isolated(jobs, opts);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_FALSE(rs[0].ok);
  EXPECT_EQ(rs[0].attempts, 1u);  // kMaxCyclesExceeded is deterministic
  EXPECT_EQ(rs[0].error_code, SimErrc::kMaxCyclesExceeded);
}

TEST(FaultSweep, RunSweepRethrowsTheFirstFailureInJobOrder) {
  // run_sweep is all-or-nothing: two failed jobs, and the earlier one's
  // error surfaces whichever worker finished first.
  std::vector<SweepJob> jobs = matrix_with_faults({2, 4});
  jobs.resize(6);
  SimError e = expect_sim_error([&] { run_sweep(jobs, 2); },
                                SimErrc::kClusterStall, "stall");
  EXPECT_EQ(e.code(), jobs[2].code->name);
}

// ---- System graceful degradation ---------------------------------------

TEST(FaultSystem, QuarantineLetsSurvivorsFinishTheirTiles) {
  // The acceptance scenario: a fault kills 1 of G=3 clusters mid-run; the
  // system completes, reporting the quarantined cluster, and the two
  // survivors finish all their tiles.
  SystemRunConfig cfg;
  cfg.clusters = 3;
  cfg.tiles = 3;
  FaultPlan plan;
  plan.add({FaultKind::kClusterStall, 1, 100, 1, 0, 1});
  cfg.run.faults = &plan;
  const StencilCode& sc = code_by_name("jacobi_2d");
  SystemRunMetrics sm = run_system_kernel(sc, cfg);

  EXPECT_TRUE(sm.degraded());
  EXPECT_EQ(sm.healthy_clusters(), 2u);
  ASSERT_EQ(sm.quarantined.size(), 3u);
  EXPECT_EQ(sm.quarantined[0], 0);
  EXPECT_EQ(sm.quarantined[1], 1);
  EXPECT_EQ(sm.quarantined[2], 0);
  EXPECT_EQ(sm.error_codes[1], SimErrc::kClusterStall);
  EXPECT_NE(sm.errors[1].find("stall"), std::string::npos) << sm.errors[1];
  EXPECT_EQ(sm.error_codes[0], SimErrc::kNone);
  EXPECT_TRUE(sm.errors[0].empty());

  // The stall hit during cluster 1's first tile: its tiles are abandoned
  // (kNotYet sentinels), the survivors' all completed and verified.
  EXPECT_EQ(sm.tiles_ok, 6u);
  for (u32 t = 0; t < cfg.tiles; ++t) {
    EXPECT_EQ(sm.tiles_window[1][t], kNotYet);
    EXPECT_NE(sm.tiles_window[0][t], kNotYet);
    EXPECT_NE(sm.tiles_window[2][t], kNotYet);
    EXPECT_GT(sm.tiles_metrics[0][t].cycles, 0u);
    EXPECT_GT(sm.tiles_metrics[2][t].cycles, 0u);
  }
  EXPECT_GT(sm.cycles, 0u);
  EXPECT_TRUE(plan.fired(FaultKind::kClusterStall, 1));
}

TEST(FaultSystem, RaisePolicyRethrowsAfterSurvivorsFinish) {
  SystemRunConfig cfg;
  cfg.clusters = 3;
  cfg.tiles = 2;
  cfg.on_error = SystemFaultPolicy::kRaise;
  FaultPlan plan;
  plan.add({FaultKind::kClusterStall, 1, 100, 1, 0, 1});
  cfg.run.faults = &plan;
  SimError e =
      expect_sim_error([&] { run_system_kernel(code_by_name("jacobi_2d"),
                                               cfg); },
                       SimErrc::kClusterStall, "stall");
  EXPECT_EQ(e.cluster(), 1);
}

TEST(FaultSystem, HbmThrottleStarvesBandwidthButCompletesTheRun) {
  SystemRunConfig cfg;
  cfg.clusters = 2;
  cfg.tiles = 2;
  const StencilCode& sc = code_by_name("jacobi_2d");
  SystemRunMetrics base = run_system_kernel(sc, cfg);

  FaultPlan plan;
  // Blackout: 0% of the word-grant budget for a long early window.
  plan.add({FaultKind::kHbmThrottle, 0, 10, 3000, 0, 1});
  SystemRunConfig faulty = cfg;
  faulty.run.faults = &plan;
  SystemRunMetrics m = run_system_kernel(sc, faulty);

  EXPECT_TRUE(plan.fired(FaultKind::kHbmThrottle, 0));
  EXPECT_FALSE(m.degraded());  // degrades bandwidth, never fails the run
  EXPECT_EQ(m.tiles_ok, cfg.clusters * cfg.tiles);
  EXPECT_GT(m.cycles, base.cycles);
  EXPECT_GT(m.hbm_denied_grants, base.hbm_denied_grants);
}

TEST(FaultSystem, WallClockBudgetIsPerTileAndRunLevel) {
  // Every tile of a system run has the run's wall-clock budget, and a
  // timeout is a run-level error: quarantined, or rethrown under kRaise.
  SystemRunConfig cfg;
  cfg.clusters = 2;
  cfg.tiles = 2;
  cfg.run.variant = KernelVariant::kBase;  // long enough to hit the check
  cfg.run.max_wall_seconds = 1e-9;
  const StencilCode& sc = code_by_name("ac_iso_cd");
  SystemRunMetrics sm = run_system_kernel(sc, cfg);
  EXPECT_EQ(sm.healthy_clusters(), 0u);
  EXPECT_EQ(sm.tiles_ok, 0u);
  ASSERT_EQ(sm.error_codes.size(), 2u);
  for (u32 g = 0; g < 2; ++g) {
    EXPECT_EQ(sm.quarantined[g], 1) << "g=" << g;
    EXPECT_EQ(sm.error_codes[g], SimErrc::kWallClockTimeout) << "g=" << g;
  }

  cfg.on_error = SystemFaultPolicy::kRaise;
  SimError e = expect_sim_error([&] { run_system_kernel(sc, cfg); },
                                SimErrc::kWallClockTimeout, "wall");
  EXPECT_EQ(e.cluster(), 0);
  EXPECT_TRUE(e.retryable());
}

TEST(FaultSystem, OneClusterRunFollowsRunKernelHookSchedule) {
  // The fault hooks run at every cycle boundary from staging until the DMA
  // drains, in run_kernel and in a system run alike.
  const StencilCode& sc = code_by_name("jacobi_2d");
  RunConfig rcfg;
  rcfg.variant = KernelVariant::kSaris;
  SystemRunConfig scfg;
  scfg.run = rcfg;
  scfg.on_error = SystemFaultPolicy::kRaise;
  const FaultEvent word_errors{FaultKind::kDmaWordError, 0, 1, 2600, 0, 1};

  // Premise: under these word errors the DMA drains long after the halt.
  {
    FaultPlan plan;
    plan.add(word_errors);
    SystemRunConfig s = scfg;
    s.run.faults = &plan;
    SystemRunMetrics sm = run_system_kernel(sc, s);
    EXPECT_EQ(sm.tiles_window[0][0], 2682u);
    EXPECT_EQ(sm.tiles_latency[0][0], 3746u);
  }

  // The cycle each path raises a stall at `stall` from, after `events`.
  auto raise_cycles = [&](Cycle stall, std::vector<FaultEvent> events) {
    events.push_back({FaultKind::kClusterStall, 0, stall, 1, 0, 1});
    FaultPlan solo_plan;
    FaultPlan sys_plan;
    for (const FaultEvent& ev : events) {
      solo_plan.add(ev);
      sys_plan.add(ev);
    }
    RunConfig r = rcfg;
    r.faults = &solo_plan;
    SystemRunConfig s = scfg;
    s.run.faults = &sys_plan;
    const SimError solo = expect_sim_error([&] { run_kernel(sc, r); },
                                           SimErrc::kClusterStall, "stall");
    const SimError sys = expect_sim_error(
        [&] { run_system_kernel(sc, s); }, SimErrc::kClusterStall, "stall");
    return std::pair<Cycle, Cycle>(solo.cycle(), sys.cycle());
  };
  // At staging, before the first step.
  EXPECT_EQ(raise_cycles(0, {}), (std::pair<Cycle, Cycle>(0, 0)));
  // In the DMA drain, between the halt at 2682 and the drain at 3746.
  EXPECT_EQ(raise_cycles(3214, {word_errors}),
            (std::pair<Cycle, Cycle>(3214, 3214)));
}

TEST(FaultSystem, StormReplaysTheSameTraceAndMetrics) {
  // The same seeded storm on two fresh systems: the fired-fault traces, the
  // quarantined shard set and every surviving tile's metrics are identical.
  FaultStormConfig storm;
  storm.clusters = 3;
  storm.hbm_throttles = 1;
  storm.dma_word_errors = 2;
  storm.tcdm_bitflips = 1;
  storm.cluster_stalls = 1;
  storm.horizon = 4000;

  auto run = [&](FaultPlan& plan) {
    SystemRunConfig cfg;
    cfg.clusters = 3;
    cfg.tiles = 2;
    cfg.run.faults = &plan;
    return run_system_kernel(code_by_name("jacobi_2d"), cfg);
  };
  FaultPlan pa = FaultPlan::storm(storm, 7);
  FaultPlan pb = FaultPlan::storm(storm, 7);
  SystemRunMetrics a = run(pa);
  SystemRunMetrics b = run(pb);

  EXPECT_EQ(pa.trace(), pb.trace()) << "first:\n"
                                    << pa.trace_string() << "second:\n"
                                    << pb.trace_string();
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.tiles_ok, b.tiles_ok);
  ASSERT_EQ(a.quarantined, b.quarantined);
  std::string why;
  for (u32 g = 0; g < 3; ++g) {
    EXPECT_EQ(a.error_codes[g], b.error_codes[g]) << "g=" << g;
    EXPECT_EQ(a.errors[g], b.errors[g]) << "g=" << g;
    for (u32 t = 0; t < 2; ++t) {
      EXPECT_EQ(a.tiles_window[g][t], b.tiles_window[g][t])
          << "g=" << g << " t=" << t;
      if (a.tiles_window[g][t] == kNotYet) continue;
      EXPECT_TRUE(metrics_bit_identical(a.tiles_metrics[g][t],
                                        b.tiles_metrics[g][t], &why))
          << "g=" << g << " t=" << t << ": " << why;
    }
  }
}

// ---- run-context tagging -----------------------------------------------

TEST(RunContextTag, ScopesNestAndRestore) {
  EXPECT_EQ(run_context_tag(), "");
  {
    RunContextScope outer("jacobi_2d", "saris", 7);
    EXPECT_EQ(run_context_tag(), "jacobi_2d/saris seed=7");
    {
      RunContextScope inner("box2d1r", "base", 9, 2);
      EXPECT_EQ(run_context_tag(), "box2d1r/base seed=9 g=2");
    }
    EXPECT_EQ(run_context_tag(), "jacobi_2d/saris seed=7");
  }
  EXPECT_EQ(run_context_tag(), "");
}

TEST(RunContextTag, SimErrorFillsContextFromTheActiveScope) {
  RunContextScope scope("star2d3r", "saris", 11, 1);
  SimError e(SimErrc::kVerifyFailed, 1234, "boom");
  EXPECT_EQ(e.code(), "star2d3r");
  EXPECT_EQ(e.variant(), "saris");
  EXPECT_EQ(e.seed(), 11u);
  EXPECT_EQ(e.cluster(), 1);
  EXPECT_EQ(std::string(e.what()),
            "[verify-failed] star2d3r/saris seed=11 g=1 cycle=1234: boom");
}

}  // namespace
}  // namespace saris
