// Unit tests: cluster integration — barrier, multi-core execution,
// determinism, watchdogs.
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.hpp"
#include "isa/builder.hpp"

namespace saris {
namespace {

// Core c's program: three barrier rounds whose lengths differ per core
// (an FP op per iteration), then a tail loop of 10 + 90*c iterations and a
// halt with no closing barrier, so the cores halt at different cycles.
Program uneven_rounds_program(u32 c) {
  ProgramBuilder b;
  for (u32 r = 0; r < 3; ++r) {
    const std::string loop = "round" + std::to_string(r);
    b.li(x(5), 0);
    b.li(x(6), static_cast<i32>(20 + 30 * ((c + 3 * r) % 8)));
    b.bind(loop);
    b.fmadd_d(f(4), f(4), f(4), f(4));
    b.addi(x(5), x(5), 1);
    b.bne(x(5), x(6), loop);
    b.barrier();
  }
  b.li(x(5), 0);
  b.li(x(6), static_cast<i32>(10 + 90 * c));
  b.bind("tail");
  b.addi(x(5), x(5), 1);
  b.bne(x(5), x(6), "tail");
  b.halt();
  return b.build();
}

TEST(Barrier, ReleasesOnlyWhenAllArrive) {
  Barrier bar(3);
  bar.arrive(0);
  bar.tick(0);
  EXPECT_FALSE(bar.released(0));
  bar.arrive(1);
  bar.tick(1);
  EXPECT_FALSE(bar.released(1));
  bar.arrive(2);
  // Release happens after the configured delay.
  for (Cycle t = 2; t < 2 + kBarrierReleaseDelay + 1; ++t) bar.tick(t);
  EXPECT_TRUE(bar.released(0));
  EXPECT_TRUE(bar.released(1));
  EXPECT_TRUE(bar.released(2));
  EXPECT_EQ(bar.episodes(), 1u);
}

TEST(Barrier, Reusable) {
  Barrier bar(2);
  for (u32 round = 0; round < 3; ++round) {
    bar.arrive(0);
    bar.arrive(1);
    for (Cycle t = 0; t < kBarrierReleaseDelay + 1; ++t) {
      bar.tick(round * 10 + t);
    }
    EXPECT_TRUE(bar.released(0));
  }
  EXPECT_EQ(bar.episodes(), 3u);
}

TEST(BarrierDeath, DoubleArrivalAborts) {
  Barrier bar(2);
  bar.arrive(0);
  EXPECT_DEATH(bar.arrive(0), "double arrival");
}

TEST(Cluster, EightCoresByDefault) {
  Cluster cl;
  EXPECT_EQ(cl.num_cores(), 8u);
}

TEST(Cluster, AllCoresRunIndependentPrograms) {
  Cluster cl;
  for (u32 c = 0; c < cl.num_cores(); ++c) {
    ProgramBuilder b;
    b.li(x(5), static_cast<i32>(c) + 1);
    b.li(x(6), 100);
    b.mul(x(7), x(5), x(6));
    b.halt();
    cl.core(c).load_program(b.build());
  }
  cl.run_until_halted();
  for (u32 c = 0; c < cl.num_cores(); ++c) {
    EXPECT_EQ(cl.core(c).xreg(7), (c + 1) * 100);
  }
}

TEST(Cluster, BarrierSynchronizesCores) {
  // Core 0 does a long loop before the barrier; all others arrive early.
  // Everyone's post-barrier timestamp must be >= core 0's arrival.
  Cluster cl;
  for (u32 c = 0; c < cl.num_cores(); ++c) {
    ProgramBuilder b;
    if (c == 0) {
      b.li(x(5), 0);
      b.li(x(6), 500);
      b.bind("spin");
      b.addi(x(5), x(5), 1);
      b.bne(x(5), x(6), "spin");
    }
    b.csrr_cycle(x(8));  // before barrier
    b.barrier();
    b.csrr_cycle(x(9));  // after barrier
    b.halt();
    cl.core(c).load_program(b.build());
  }
  cl.run_until_halted();
  u32 core0_arrival = cl.core(0).xreg(8);
  EXPECT_GT(core0_arrival, 1000u);
  for (u32 c = 0; c < cl.num_cores(); ++c) {
    EXPECT_GE(cl.core(c).xreg(9), core0_arrival);
    // Core 0 arrives last and waits out only the release delay; the others
    // stall from their arrival to the release. All halt on one cycle, and
    // no core issues an FP op, so each FPU idles for the whole window.
    const CorePerf& p = cl.core(c).perf();
    EXPECT_EQ(p.stall_barrier, c == 0 ? kBarrierReleaseDelay : 2002u)
        << "core " << c;
    EXPECT_EQ(p.fpu_idle_empty, 2017u) << "core " << c;
    EXPECT_EQ(p.halted_at, 2016u) << "core " << c;
  }
}

TEST(Cluster, UnevenBarrierRoundsThenStaggeredHaltsKeepBooks) {
  // Every core waits at some barriers and halts while others still run, and
  // its books must tile both windows of core/perf_counters.hpp. The
  // counters are pinned: how the cluster steps a waiting or halted core
  // must not move them.
  Cluster cl;
  for (u32 c = 0; c < cl.num_cores(); ++c) {
    cl.core(c).load_program(uneven_rounds_program(c));
  }
  const Cycle window = cl.run_until_halted();
  EXPECT_EQ(window, 6053u);
  const u64 halted_at[] = {3532, 3892, 4252, 4612, 4972, 5332, 5692, 6052};
  const u64 stall_barrier[] = {1806, 1356, 2106, 1656,
                               1206, 1956, 1506, 1056};
  const u64 fpu_idle_empty[] = {5723, 5633, 5783, 5693,
                                5603, 5753, 5663, 5573};
  for (u32 c = 0; c < cl.num_cores(); ++c) {
    const CorePerf& p = cl.core(c).perf();
    const u64 busy = p.halted_at + 1;  // the window starts at cycle 0
    EXPECT_EQ(p.int_side() + 1, busy)
        << "integer-side conservation, core " << c;
    EXPECT_EQ(p.fpu_side(), window) << "FPU-side conservation, core " << c;
    EXPECT_EQ(p.halted_at, halted_at[c]) << "core " << c;
    EXPECT_EQ(p.stall_barrier, stall_barrier[c]) << "core " << c;
    EXPECT_EQ(p.fpu_idle_empty, fpu_idle_empty[c]) << "core " << c;
  }
}

TEST(Cluster, FpuBooksTileEveryStep) {
  // Every core is ticked every cycle, so the FPU-side books are exact after
  // any step — while cores wait at a barrier and after they halt — with
  // nothing to fold in before reading them.
  Cluster cl;
  for (u32 c = 0; c < cl.num_cores(); ++c) {
    cl.core(c).load_program(uneven_rounds_program(c));
  }
  while (!cl.all_halted()) {
    cl.step();
    for (u32 c = 0; c < cl.num_cores(); ++c) {
      ASSERT_EQ(cl.core(c).perf().fpu_side(), cl.now())
          << "core " << c << " at cycle " << cl.now();
    }
  }
}

TEST(Cluster, SharedTcdmVisibleAcrossCores) {
  // Core 0 stores, waits at a barrier, core 1 loads after the barrier.
  Cluster cl;
  {
    ProgramBuilder b;
    b.li(x(5), 4096);
    b.li(x(6), 1234);
    b.sw(x(6), x(5), 0);
    b.barrier();
    b.halt();
    cl.core(0).load_program(b.build());
  }
  {
    ProgramBuilder b;
    b.barrier();
    b.li(x(5), 4096);
    b.lw(x(7), x(5), 0);
    b.halt();
    cl.core(1).load_program(b.build());
  }
  for (u32 c = 2; c < cl.num_cores(); ++c) {
    ProgramBuilder b;
    b.barrier();
    b.halt();
    cl.core(c).load_program(b.build());
  }
  cl.run_until_halted();
  EXPECT_EQ(cl.core(1).xreg(7), 1234u);
}

TEST(Cluster, DeterministicCycleCounts) {
  auto run_once = []() {
    Cluster cl;
    for (u32 c = 0; c < cl.num_cores(); ++c) {
      ProgramBuilder b;
      b.li(x(5), 0);
      b.li(x(6), static_cast<i32>(50 + 10 * c));
      b.bind("loop");
      b.fmadd_d(f(4), f(4), f(4), f(4));
      b.addi(x(5), x(5), 1);
      b.bne(x(5), x(6), "loop");
      b.barrier();
      b.halt();
      cl.core(c).load_program(b.build());
    }
    return cl.run_until_halted();
  };
  Cycle a = run_once();
  Cycle b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0u);
}

TEST(Cluster, StepAdvancesTime) {
  Cluster cl;
  EXPECT_EQ(cl.now(), 0u);
  cl.step();
  EXPECT_EQ(cl.now(), 1u);
}

TEST(ClusterDeath, WatchdogFiresWithoutHalt) {
  Cluster cl;
  for (u32 c = 0; c < cl.num_cores(); ++c) {
    ProgramBuilder b;
    b.bind("forever");
    b.j("forever");
    cl.core(c).load_program(b.build());
  }
  EXPECT_DEATH(cl.run_until_halted(1000), "did not halt");
}

}  // namespace
}  // namespace saris
