// Unit tests: SSR address generators and lanes — affine sequences checked
// against a reference nested loop (property style), indirect gathers against
// a scalar gather, stream/busy semantics, packed index decoding.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ssr/ssr_unit.hpp"

namespace saris {
namespace {

// ---- affine generator ----

struct AffineCase {
  u32 bounds[4];
  i32 strides[4];
};

class AffineSweep : public ::testing::TestWithParam<AffineCase> {};

TEST_P(AffineSweep, MatchesReferenceNestedLoop) {
  const AffineCase& c = GetParam();
  SsrLaneConfig cfg;
  for (u32 d = 0; d < 4; ++d) {
    cfg.bounds[d] = c.bounds[d];
    cfg.strides[d] = c.strides[d];
  }
  AffineAddrGen gen;
  const Addr base = 4096;
  gen.start(cfg, base);

  std::vector<Addr> expect;
  for (u32 i3 = 0; i3 < c.bounds[3]; ++i3) {
    for (u32 i2 = 0; i2 < c.bounds[2]; ++i2) {
      for (u32 i1 = 0; i1 < c.bounds[1]; ++i1) {
        for (u32 i0 = 0; i0 < c.bounds[0]; ++i0) {
          i64 a = base;
          a += static_cast<i64>(i0) * c.strides[0];
          a += static_cast<i64>(i1) * c.strides[1];
          a += static_cast<i64>(i2) * c.strides[2];
          a += static_cast<i64>(i3) * c.strides[3];
          expect.push_back(static_cast<Addr>(a));
        }
      }
    }
  }
  EXPECT_EQ(gen.remaining(), expect.size());
  for (Addr e : expect) {
    ASSERT_FALSE(gen.done());
    EXPECT_EQ(gen.next(), e);
  }
  EXPECT_TRUE(gen.done());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AffineSweep,
    ::testing::Values(
        AffineCase{{1, 1, 1, 1}, {0, 0, 0, 0}},      // single element
        AffineCase{{8, 1, 1, 1}, {8, 0, 0, 0}},      // 1-D contiguous
        AffineCase{{4, 3, 1, 1}, {8, 512, 0, 0}},    // 2-D strided
        AffineCase{{4, 3, 2, 1}, {8, 512, 2048, 0}}, // 3-D tile walk
        AffineCase{{2, 2, 2, 2}, {8, -16, 64, 1024}},// negative stride
        AffineCase{{3, 4, 1, 1}, {16, -8, 0, 0}},    // down-counting rows
        AffineCase{{5, 1, 1, 1}, {0, 0, 0, 0}},      // repeat same address
        // The wrapping coefficient stream of the SR2-spill mode: dim 0
        // walks the window, outer dims have stride 0 (re-read per point).
        AffineCase{{3, 4, 2, 1}, {8, 0, 0, 0}}));

TEST(AffineAddrGen, PeekDoesNotAdvance) {
  SsrLaneConfig cfg;
  cfg.bounds[0] = 2;
  cfg.strides[0] = 8;
  AffineAddrGen g;
  g.start(cfg, 0);
  EXPECT_EQ(g.peek(), 0u);
  EXPECT_EQ(g.peek(), 0u);
  EXPECT_EQ(g.next(), 0u);
  EXPECT_EQ(g.peek(), 8u);
}

// ---- lane rig ----

struct LaneRig {
  Tcdm tcdm;
  SsrUnit unit{tcdm, 0};

  /// Write one config word through the unit, the only launch path.
  void cfg(const SsrLane& lane, u32 word, u32 value) {
    unit.write_cfg(lane.lane_id(), word, value);
  }

  void step(u32 n = 1) {
    for (u32 i = 0; i < n; ++i) {
      unit.collect(i);
      unit.tick(i);
      tcdm.arbitrate(i);
    }
  }
};

TEST(SsrLane, AffineReadStreamsInOrder) {
  LaneRig r;
  for (u32 i = 0; i < 16; ++i) r.tcdm.host_write_f64(8 * i, 100.0 + i);
  SsrLane& lane = r.unit.lane(2);  // affine-only lane
  r.cfg(lane, kSsrBound0, 16);
  r.cfg(lane, kSsrStride0, 8);
  r.cfg(lane, kSsrLaunchRead, 0);
  EXPECT_TRUE(lane.busy());

  std::vector<double> got;
  for (u32 guard = 0; got.size() < 16 && guard < 200; ++guard) {
    r.step();
    while (lane.can_pop()) got.push_back(lane.pop());
  }
  ASSERT_EQ(got.size(), 16u);
  for (u32 i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(got[i], 100.0 + i);
  EXPECT_FALSE(lane.busy());
  EXPECT_EQ(lane.elems_streamed(), 16u);
}

TEST(SsrLane, SustainsOneElementPerCycleAfterFill) {
  LaneRig r;
  SsrLane& lane = r.unit.lane(2);
  r.cfg(lane, kSsrBound0, 64);
  r.cfg(lane, kSsrStride0, 8);
  r.cfg(lane, kSsrLaunchRead, 0);
  // Fill phase.
  r.step(4);
  // Steady state: one pop per cycle must always be possible.
  u32 pops = 0;
  for (u32 i = 0; i < 40; ++i) {
    ASSERT_TRUE(lane.can_pop()) << "starved at cycle " << i;
    lane.pop();
    ++pops;
    r.step();
  }
  EXPECT_EQ(pops, 40u);
}

TEST(SsrLane, IndirectGatherMatchesScalarGather) {
  LaneRig r;
  for (u32 i = 0; i < 256; ++i) r.tcdm.host_write_f64(8 * i, i * 0.5);
  // Random-ish index pattern, 16-bit packed, with repeats.
  std::vector<u16> idx = {7, 3, 3, 250, 0, 41, 77, 12, 200, 199, 1, 255, 128};
  const Addr idx_base = 4096;
  r.tcdm.host_write(idx_base, idx.data(), idx.size() * sizeof(u16));

  SsrLane& lane = r.unit.lane(0);
  r.cfg(lane, kSsrIdxBase, idx_base);
  r.cfg(lane, kSsrIdxCount, static_cast<u32>(idx.size()));
  r.cfg(lane, kSsrIdxSize, 2);
  r.cfg(lane, kSsrLaunchIndirect, 0);

  std::vector<double> got;
  for (u32 guard = 0; got.size() < idx.size() && guard < 400; ++guard) {
    r.step();
    while (lane.can_pop()) got.push_back(lane.pop());
  }
  ASSERT_EQ(got.size(), idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], idx[i] * 0.5) << "element " << i;
  }
}

TEST(SsrLane, IndirectWithNonZeroBase) {
  LaneRig r;
  for (u32 i = 0; i < 64; ++i) r.tcdm.host_write_f64(1024 + 8 * i, 7.0 + i);
  std::vector<u16> idx = {5, 1, 9};
  r.tcdm.host_write(0, idx.data(), idx.size() * sizeof(u16));
  SsrLane& lane = r.unit.lane(1);
  r.cfg(lane, kSsrIdxBase, 0);
  r.cfg(lane, kSsrIdxCount, 3);
  r.cfg(lane, kSsrIdxSize, 2);
  r.cfg(lane, kSsrLaunchIndirect, 1024);
  std::vector<double> got;
  for (u32 guard = 0; got.size() < 3 && guard < 100; ++guard) {
    r.step();
    while (lane.can_pop()) got.push_back(lane.pop());
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_DOUBLE_EQ(got[0], 12.0);
  EXPECT_DOUBLE_EQ(got[1], 8.0);
  EXPECT_DOUBLE_EQ(got[2], 16.0);
}

class IdxSizeSweep : public ::testing::TestWithParam<u32> {};

TEST_P(IdxSizeSweep, PackedIndexDecoding) {
  u32 idx_size = GetParam();
  LaneRig r;
  for (u32 i = 0; i < 200; ++i) r.tcdm.host_write_f64(8 * i, 1000.0 + i);
  std::vector<u32> idx = {9, 0, 150, 3, 77, 5, 1, 2, 60};
  const Addr idx_base = 8192;
  // Pack at the configured width.
  std::vector<u8> raw(idx.size() * idx_size, 0);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    std::memcpy(raw.data() + i * idx_size, &idx[i], idx_size);
  }
  r.tcdm.host_write(idx_base, raw.data(), static_cast<u32>(raw.size()));

  SsrLane& lane = r.unit.lane(0);
  r.cfg(lane, kSsrIdxBase, idx_base);
  r.cfg(lane, kSsrIdxCount, static_cast<u32>(idx.size()));
  r.cfg(lane, kSsrIdxSize, idx_size);
  r.cfg(lane, kSsrLaunchIndirect, 0);
  std::vector<double> got;
  for (u32 guard = 0; got.size() < idx.size() && guard < 300; ++guard) {
    r.step();
    while (lane.can_pop()) got.push_back(lane.pop());
  }
  ASSERT_EQ(got.size(), idx.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_DOUBLE_EQ(got[i], 1000.0 + idx[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, IdxSizeSweep, ::testing::Values(1u, 2u, 4u));

TEST(SsrLane, WriteStreamDrainsToMemory) {
  LaneRig r;
  SsrLane& lane = r.unit.lane(2);
  r.cfg(lane, kSsrBound0, 4);
  r.cfg(lane, kSsrStride0, 16);  // every other word
  r.cfg(lane, kSsrLaunchWrite, 512);
  for (u32 i = 0; i < 4; ++i) {
    ASSERT_TRUE(lane.can_reserve_push());
    lane.reserve_push();
    lane.push(2.5 * i);
    r.step(3);
  }
  for (u32 guard = 0; lane.busy() && guard < 100; ++guard) r.step();
  EXPECT_FALSE(lane.busy());
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(r.tcdm.host_read_f64(512 + 16 * i), 2.5 * i);
  }
}

TEST(SsrLane, RelaunchReusesConfiguration) {
  // SARIS relaunches the same index array with a new base every row.
  LaneRig r;
  for (u32 i = 0; i < 64; ++i) r.tcdm.host_write_f64(8 * i, i);
  std::vector<u16> idx = {2, 4};
  r.tcdm.host_write(2048, idx.data(), idx.size() * sizeof(u16));
  SsrLane& lane = r.unit.lane(0);
  r.cfg(lane, kSsrIdxBase, 2048);
  r.cfg(lane, kSsrIdxCount, 2);
  r.cfg(lane, kSsrIdxSize, 2);
  for (u32 row = 0; row < 3; ++row) {
    r.cfg(lane, kSsrLaunchIndirect, row * 80);  // base advances by 10 elems
    std::vector<double> got;
    for (u32 guard = 0; got.size() < 2 && guard < 100; ++guard) {
      r.step();
      while (lane.can_pop()) got.push_back(lane.pop());
    }
    ASSERT_EQ(got.size(), 2u);
    EXPECT_DOUBLE_EQ(got[0], row * 10 + 2.0);
    EXPECT_DOUBLE_EQ(got[1], row * 10 + 4.0);
  }
}

TEST(SsrUnit, EnableDisable) {
  LaneRig r;
  EXPECT_FALSE(r.unit.enabled());
  r.unit.set_enabled(true);
  EXPECT_TRUE(r.unit.enabled());
  r.unit.set_enabled(false);
}

TEST(SsrUnit, TwoIndirectLanesShareTheIndexPort) {
  LaneRig r;
  for (u32 i = 0; i < 64; ++i) r.tcdm.host_write_f64(8 * i, i);
  std::vector<u16> ia = {1, 2, 3, 4}, ib = {10, 11, 12, 13};
  r.tcdm.host_write(1024, ia.data(), 8);
  r.tcdm.host_write(1032, ib.data(), 8);
  for (u32 l = 0; l < 2; ++l) {
    SsrLane& lane = r.unit.lane(l);
    r.cfg(lane, kSsrIdxBase, l == 0 ? 1024 : 1032);
    r.cfg(lane, kSsrIdxCount, 4);
    r.cfg(lane, kSsrIdxSize, 2);
    r.cfg(lane, kSsrLaunchIndirect, 0);
  }
  std::vector<double> a, bvals;
  for (u32 guard = 0; (a.size() < 4 || bvals.size() < 4) && guard < 200;
       ++guard) {
    r.step();
    while (r.unit.lane(0).can_pop()) a.push_back(r.unit.lane(0).pop());
    while (r.unit.lane(1).can_pop()) bvals.push_back(r.unit.lane(1).pop());
  }
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(bvals.size(), 4u);
  for (u32 i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(a[i], ia[i]);
    EXPECT_DOUBLE_EQ(bvals[i], ib[i]);
  }
  EXPECT_EQ(r.unit.total_elems_streamed(), 8u);
  EXPECT_GE(r.unit.total_idx_words_fetched(), 2u);
}

// ---- scfgwi decoder ----

TEST(ScfgDecoder, SplitsSelectorAndAppliesConfigWords) {
  const ScfgSel sel = scfg_select(scfg_imm(2, kSsrStride1));
  EXPECT_EQ(sel.lane, 2u);
  EXPECT_EQ(sel.word, kSsrStride1);
  EXPECT_TRUE(sel.lane_ok());
  EXPECT_FALSE(scfg_select(scfg_imm(kNumSsrLanes, kSsrBound0)).lane_ok());

  SsrLaneConfig cfg;
  const ScfgEffect e = apply_scfg_word(cfg, sel, static_cast<u32>(-16));
  EXPECT_EQ(e.status, ScfgStatus::kOk);
  EXPECT_EQ(e.launch, SsrStreamKind::kNone);
  EXPECT_EQ(cfg.strides[1], -16);
  EXPECT_EQ(apply_scfg_word(cfg, {2, kSsrLaunchWrite}, 64).launch,
            SsrStreamKind::kAffineWrite);
}

TEST(ScfgDecoder, ReportsBadWritesAsStatus) {
  SsrLaneConfig cfg;
  EXPECT_EQ(apply_scfg_word(cfg, {0, kSsrIdxSize}, 3).status,
            ScfgStatus::kBadIdxSize);
  EXPECT_EQ(cfg.idx_size, 2u);  // unchanged
  EXPECT_EQ(apply_scfg_word(cfg, {0, 12}, 0).status, ScfgStatus::kBadWord);
  EXPECT_EQ(apply_scfg_word(cfg, {0, kSsrLaunchIndirect}, 0).status,
            ScfgStatus::kNoIndices);
  cfg.idx_count = 4;
  EXPECT_EQ(apply_scfg_word(cfg, {2, kSsrLaunchIndirect}, 0).status,
            ScfgStatus::kAffineOnlyLane);
  EXPECT_EQ(apply_scfg_word(cfg, {1, kSsrLaunchIndirect}, 0).launch,
            SsrStreamKind::kIndirectRead);
}

TEST(SsrLaneDeath, ConfigWhileBusyAborts) {
  LaneRig r;
  SsrLane& lane = r.unit.lane(2);
  r.cfg(lane, kSsrBound0, 8);
  r.cfg(lane, kSsrStride0, 8);
  r.cfg(lane, kSsrLaunchRead, 0);
  EXPECT_DEATH(r.cfg(lane, kSsrBound0, 4), "busy");
}

TEST(SsrLaneDeath, AffineLaneRejectsIndirect) {
  LaneRig r;
  SsrLane& lane = r.unit.lane(2);
  r.cfg(lane, kSsrIdxBase, 0);
  r.cfg(lane, kSsrIdxCount, 1);
  EXPECT_DEATH(r.cfg(lane, kSsrLaunchIndirect, 0),
               "not indirection-capable");
}

TEST(SsrLaneDeath, PopPastEndAborts) {
  LaneRig r;
  SsrLane& lane = r.unit.lane(2);
  EXPECT_DEATH(lane.pop(), "empty");
}

// Each lane's TCDM port carries its lane and its core, so an abort on the
// port says whose lane it was. The unit registers its index port first,
// then lanes 0-2, so lane 1 is port 2.
TEST(SsrLaneDeath, TcdmAbortNamesTheLaneAndItsCore) {
  Tcdm tcdm;
  SsrUnit unit{tcdm, 3};
  tcdm.post(2, 0, 8, false, 0);
  EXPECT_DEATH(tcdm.post(2, 8, 8, false, 0), "busy port ssr1/core3");
}

TEST(SsrUnitDeath, DisableWhileBusyAborts) {
  LaneRig r;
  r.unit.set_enabled(true);
  SsrLane& lane = r.unit.lane(2);
  r.cfg(lane, kSsrBound0, 4);
  r.cfg(lane, kSsrStride0, 8);
  r.cfg(lane, kSsrLaunchRead, 0);
  EXPECT_DEATH(r.unit.set_enabled(false), "busy");
}

}  // namespace
}  // namespace saris
