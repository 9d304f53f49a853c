// Unit tests: DMA engine — functional copies in all shapes/directions plus
// the bandwidth-utilization behaviour the scale-out model depends on.
#include <gtest/gtest.h>

#include <vector>

#include "mem/dma.hpp"

namespace saris {
namespace {

struct DmaRig {
  Tcdm tcdm;
  MainMemory mem{1 << 20};
  DirectMemoryPort port{mem};
  Dma dma{tcdm, port};

  void run_to_idle() {
    u32 guard = 0;
    while (!dma.idle()) {
      dma.tick(guard);
      tcdm.arbitrate(guard);
      ASSERT_LT(++guard, 100000u) << "DMA did not drain";
    }
  }
};

TEST(Dma, Copy1DToTcdm) {
  DmaRig r;
  std::vector<double> src(64);
  for (u32 i = 0; i < 64; ++i) src[i] = i * 1.5;
  r.mem.write(0, src.data(), src.size() * 8);

  DmaJob j;
  j.to_tcdm = true;
  j.tcdm_addr = 1024;
  j.mem_addr = 0;
  j.row_bytes = 64 * 8;
  r.dma.push(j);
  r.run_to_idle();

  for (u32 i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(r.tcdm.host_read_f64(1024 + 8 * i), i * 1.5);
  }
  EXPECT_EQ(r.dma.bytes_moved(), 64u * 8);
}

TEST(Dma, Copy1DFromTcdm) {
  DmaRig r;
  for (u32 i = 0; i < 32; ++i) r.tcdm.host_write_f64(8 * i, i + 0.25);
  DmaJob j;
  j.to_tcdm = false;
  j.tcdm_addr = 0;
  j.mem_addr = 4096;
  j.row_bytes = 32 * 8;
  r.dma.push(j);
  r.run_to_idle();
  for (u32 i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(r.mem.read_f64(4096 + 8 * i), i + 0.25);
  }
}

TEST(Dma, Strided2DCopy) {
  DmaRig r;
  // 4 rows of 2 doubles, TCDM pitch 64 B, memory contiguous.
  for (u32 row = 0; row < 4; ++row) {
    for (u32 c = 0; c < 2; ++c) {
      r.mem.write_f64((row * 2 + c) * 8, row * 10.0 + c);
    }
  }
  DmaJob j;
  j.to_tcdm = true;
  j.tcdm_addr = 0;
  j.mem_addr = 0;
  j.row_bytes = 16;
  j.rows = 4;
  j.tcdm_row_stride = 64;
  j.mem_row_stride = 16;
  r.dma.push(j);
  r.run_to_idle();
  for (u32 row = 0; row < 4; ++row) {
    EXPECT_DOUBLE_EQ(r.tcdm.host_read_f64(row * 64), row * 10.0);
    EXPECT_DOUBLE_EQ(r.tcdm.host_read_f64(row * 64 + 8), row * 10.0 + 1);
  }
}

TEST(Dma, Strided3DCopy) {
  DmaRig r;
  // 2 planes x 3 rows x 2 doubles.
  for (u32 p = 0; p < 2; ++p) {
    for (u32 row = 0; row < 3; ++row) {
      for (u32 c = 0; c < 2; ++c) {
        r.mem.write_f64(((p * 3 + row) * 2 + c) * 8, p * 100.0 + row * 10.0 + c);
      }
    }
  }
  DmaJob j;
  j.to_tcdm = true;
  j.tcdm_addr = 0;
  j.mem_addr = 0;
  j.row_bytes = 16;
  j.rows = 3;
  j.tcdm_row_stride = 64;
  j.mem_row_stride = 16;
  j.planes = 2;
  j.tcdm_plane_stride = 1024;
  j.mem_plane_stride = 48;
  r.dma.push(j);
  r.run_to_idle();
  for (u32 p = 0; p < 2; ++p) {
    for (u32 row = 0; row < 3; ++row) {
      EXPECT_DOUBLE_EQ(r.tcdm.host_read_f64(p * 1024 + row * 64),
                       p * 100.0 + row * 10.0);
    }
  }
}

TEST(Dma, LongRowsUtilizeBetterThanShortRows) {
  // The paper-relevant effect: 2-D tiles (512 B rows) achieve higher DMA
  // bandwidth utilization than 3-D tiles (128 B rows).
  DmaRig r2;
  DmaJob long_rows;
  long_rows.to_tcdm = true;
  long_rows.tcdm_addr = 0;
  long_rows.mem_addr = 0;
  long_rows.row_bytes = 512;
  long_rows.rows = 64;
  long_rows.tcdm_row_stride = 512;
  long_rows.mem_row_stride = 512;
  r2.dma.push(long_rows);
  r2.run_to_idle();

  DmaRig r3;
  DmaJob short_rows = long_rows;
  short_rows.row_bytes = 128;
  short_rows.rows = 256;  // same total bytes
  short_rows.tcdm_row_stride = 128;
  short_rows.mem_row_stride = 128;
  r3.dma.push(short_rows);
  r3.run_to_idle();

  EXPECT_EQ(r2.dma.bytes_moved(), r3.dma.bytes_moved());
  EXPECT_GT(r2.dma.bandwidth_utilization(),
            r3.dma.bandwidth_utilization() + 0.1);
  EXPECT_GT(r2.dma.bandwidth_utilization(), 0.7);
}

TEST(Dma, QueueProcessesJobsInOrder) {
  DmaRig r;
  r.mem.write_f64(0, 1.0);
  r.mem.write_f64(8, 2.0);
  DmaJob a;
  a.to_tcdm = true;
  a.tcdm_addr = 0;
  a.mem_addr = 0;
  a.row_bytes = 8;
  DmaJob b = a;
  b.tcdm_addr = 0;  // overwrites a's result: order observable
  b.mem_addr = 8;
  r.dma.push(a);
  r.dma.push(b);
  r.run_to_idle();
  EXPECT_DOUBLE_EQ(r.tcdm.host_read_f64(0), 2.0);
}

TEST(Dma, UtilizationZeroWhenNeverUsed) {
  DmaRig r;
  EXPECT_TRUE(r.dma.idle());
  EXPECT_DOUBLE_EQ(r.dma.bandwidth_utilization(), 0.0);
}

TEST(DmaDeath, RejectsUnalignedJob) {
  DmaRig r;
  DmaJob j;
  j.tcdm_addr = 4;
  j.mem_addr = 0;
  j.row_bytes = 8;
  EXPECT_DEATH(r.dma.push(j), "aligned");
}

TEST(DmaDeath, RejectsNonWordRow) {
  DmaRig r;
  DmaJob j;
  j.tcdm_addr = 0;
  j.mem_addr = 0;
  j.row_bytes = 12;
  EXPECT_DEATH(r.dma.push(j), "multiple of 8");
}

TEST(Dma, ActivePortScanMatchesPinnedDigest) {
  // Three jobs covering short strided rows with drain tails, TCDM-to-memory
  // retirement writes and full-width rows. The digest folds the per-cycle
  // byte/activity trajectory, the TCDM statistics and the final TCDM and
  // main-memory contents; it was recorded when a dense all-ports reference
  // scan still existed and agreed with the active-port-mask tick.
  DmaRig r;
  for (u32 i = 0; i < 256; ++i) r.mem.write_f64(8 * i, i * 0.5 + 1.0);
  for (u32 i = 0; i < 64; ++i) r.tcdm.host_write_f64(8192 + 8 * i, i - 3.5);

  DmaJob in3d;  // short strided rows: long drain tails between rows
  in3d.to_tcdm = true;
  in3d.tcdm_addr = 0;
  in3d.mem_addr = 0;
  in3d.row_bytes = 16;
  in3d.rows = 3;
  in3d.tcdm_row_stride = 64;
  in3d.mem_row_stride = 16;
  in3d.planes = 2;
  in3d.tcdm_plane_stride = 1024;
  in3d.mem_plane_stride = 48;
  r.dma.push(in3d);

  DmaJob out1d;  // TCDM -> memory direction exercises retirement writes
  out1d.to_tcdm = false;
  out1d.tcdm_addr = 8192;
  out1d.mem_addr = 65536;
  out1d.row_bytes = 64 * 8;
  r.dma.push(out1d);

  DmaJob in1d;  // full-width rows: all eight ports busy at once
  in1d.to_tcdm = true;
  in1d.tcdm_addr = 4096;
  in1d.mem_addr = 1024;
  in1d.row_bytes = 512;
  r.dma.push(in1d);

  u64 digest = 0;
  Cycle cyc = 0;
  while (!r.dma.idle()) {
    r.dma.tick(cyc);
    r.tcdm.arbitrate(cyc);
    digest = digest * 31 + r.dma.bytes_moved();
    digest = digest * 31 + r.dma.active_cycles();
    ASSERT_LT(++cyc, 100000u) << "DMA did not drain";
  }
  digest = digest * 31 + r.tcdm.total_accesses();
  digest = digest * 31 + r.tcdm.total_conflicts();
  for (u32 i = 0; i < 64; ++i) {
    digest = digest * 31 + r.tcdm.host_read_u64(4096 + 8 * i);
    u64 w = 0;
    r.mem.read(65536 + 8 * i, &w, 8);
    digest = digest * 31 + w;
  }
  EXPECT_EQ(digest, 0x7A32FBFCABD4AEC5ull);
}

TEST(DmaDeath, RejectsJobBeyondMainMemory) {
  DmaRig r;  // 1 MiB main memory
  DmaJob j;
  j.to_tcdm = true;
  j.tcdm_addr = 0;
  j.mem_addr = (1u << 20) - 8;
  j.row_bytes = 16;  // last word lands past the end
  EXPECT_DEATH(r.dma.push(j), "main-memory extent out of range");
}

TEST(DmaDeath, RejectsJobBeyondTcdm) {
  DmaRig r;
  DmaJob j;
  j.to_tcdm = true;
  j.tcdm_addr = 0;
  j.mem_addr = 0;
  j.row_bytes = 64;
  j.rows = 4096;  // row stride walks far past 128 KiB
  j.tcdm_row_stride = 64;
  j.mem_row_stride = 64;
  EXPECT_DEATH(r.dma.push(j), "TCDM extent out of range");
}

TEST(DmaDeath, RejectsNegativeStrideUnderflow) {
  DmaRig r;
  DmaJob j;
  j.to_tcdm = true;
  j.tcdm_addr = 64;
  j.mem_addr = 0;
  j.row_bytes = 8;
  j.rows = 3;
  j.tcdm_row_stride = -64;  // second/third rows start below address 0
  j.mem_row_stride = 8;
  EXPECT_DEATH(r.dma.push(j), "TCDM extent out of range");
}

TEST(DmaDeath, RejectsWrappingMemAddress) {
  DmaRig r;
  DmaJob j;
  j.to_tcdm = true;
  j.tcdm_addr = 0;
  // Huge aligned base: `mem_addr + row_bytes` wraps u64, so a wrap-unsafe
  // bound check would accept it. Validation must reject at push time.
  j.mem_addr = ~0ull - 7;
  j.row_bytes = 16;
  EXPECT_DEATH(r.dma.push(j), "main-memory extent out of range");
}

TEST(MainMemory, ReadWriteRoundTrip) {
  MainMemory m(4096);
  double v = 3.14159;
  m.write_f64(8, v);
  EXPECT_DOUBLE_EQ(m.read_f64(8), v);
  EXPECT_EQ(m.size_bytes(), 4096u);
}

TEST(MainMemory, LazyBackingAllocation) {
  MainMemory m(512ull * 1024 * 1024);
  EXPECT_EQ(m.resident_bytes(), 0u);  // construction touches no pages

  // Reads of never-written ranges return zeros without allocating.
  std::vector<u8> buf(4096, 0xAB);
  m.read(100ull * 1024 * 1024, buf.data(), buf.size());
  for (u8 b : buf) EXPECT_EQ(b, 0u);
  EXPECT_DOUBLE_EQ(m.read_f64(400ull * 1024 * 1024), 0.0);
  EXPECT_EQ(m.resident_bytes(), 0u);

  // A write allocates exactly the chunks it touches.
  m.write_f64(200ull * 1024 * 1024, 2.5);
  EXPECT_EQ(m.resident_bytes(), MainMemory::kChunkBytes);
  EXPECT_DOUBLE_EQ(m.read_f64(200ull * 1024 * 1024), 2.5);
}

TEST(MainMemory, AccessesSpanningChunkBoundary) {
  MainMemory m(4 * MainMemory::kChunkBytes);
  std::vector<u8> src(MainMemory::kChunkBytes + 4096);
  for (std::size_t i = 0; i < src.size(); ++i) {
    src[i] = static_cast<u8>(i * 131 + 7);
  }
  u64 addr = MainMemory::kChunkBytes - 2048;  // straddles two boundaries
  m.write(addr, src.data(), src.size());
  EXPECT_EQ(m.resident_bytes(), 3 * MainMemory::kChunkBytes);
  std::vector<u8> back(src.size());
  m.read(addr, back.data(), back.size());
  EXPECT_EQ(src, back);
}

TEST(MainMemory, ChunkPoolRecyclesAcrossInstances) {
  MainMemory::trim_pool();
  {
    MainMemory m(16 * MainMemory::kChunkBytes);
    m.write_f64(0, 1.0);
    m.write_f64(5 * MainMemory::kChunkBytes, 2.0);
  }
  // The two touched chunks were parked in the pool at destruction...
  EXPECT_EQ(MainMemory::pool_chunks(), 2u);
  {
    // ...and the next instance drains them (scrubbed back to zero) before
    // allocating anything new.
    MainMemory m(16 * MainMemory::kChunkBytes);
    m.write_f64(8, 3.0);
    EXPECT_EQ(MainMemory::pool_chunks(), 1u);
    EXPECT_DOUBLE_EQ(m.read_f64(0), 0.0);  // recycled chunk reads as zero
    m.write_f64(MainMemory::kChunkBytes, 4.0);
    EXPECT_EQ(MainMemory::pool_chunks(), 0u);
  }
  EXPECT_EQ(MainMemory::pool_chunks(), 2u);
  MainMemory::trim_pool();
  EXPECT_EQ(MainMemory::pool_chunks(), 0u);
}

// ---- make_tile_dma_job: the one geometry behind both overlap-DMA shapes ----

TEST(TileDmaJob, FullTileMatchesHandBuiltJob) {
  // A full halo'd tile (origin 0, full extent): TCDM side dense, memory
  // side packed — row and plane strides all equal the row payload times
  // the row count, exactly what the hand-rolled halo job used to build.
  const u32 nx = 16, ny = 16, nz = 16;
  DmaJob j = make_tile_dma_job(/*to_tcdm=*/false, /*tcdm_base=*/0x400,
                               /*mem_addr=*/0x1000, nx, ny, 0, 0, 0, nx, ny,
                               nz);
  EXPECT_FALSE(j.to_tcdm);
  EXPECT_EQ(j.tcdm_addr, 0x400u);
  EXPECT_EQ(j.mem_addr, 0x1000u);
  EXPECT_EQ(j.row_bytes, nx * kWordBytes);
  EXPECT_EQ(j.rows, ny);
  EXPECT_EQ(j.tcdm_row_stride, static_cast<i32>(nx * kWordBytes));
  EXPECT_EQ(j.mem_row_stride, static_cast<i64>(nx * kWordBytes));
  EXPECT_EQ(j.planes, nz);
  EXPECT_EQ(j.tcdm_plane_stride, static_cast<i32>(nx * ny * kWordBytes));
  EXPECT_EQ(j.mem_plane_stride, static_cast<i64>(nx * kWordBytes) * ny);
  EXPECT_EQ(j.total_bytes(), static_cast<u64>(nx) * ny * nz * kWordBytes);
}

TEST(TileDmaJob, InteriorRegionMatchesHandBuiltJob) {
  // Interior of a radius-2 16^3 tile: origin (2,2,2), 12^3 extent, strided
  // in TCDM at the tile pitch, packed in memory.
  const u32 tnx = 16, tny = 16, r = 2, inx = 12, iny = 12, inz = 12;
  DmaJob j = make_tile_dma_job(false, /*tcdm_base=*/0, /*mem_addr=*/0, tnx,
                               tny, r, r, r, inx, iny, inz);
  EXPECT_EQ(j.tcdm_addr,
            ((static_cast<Addr>(r) * tny + r) * tnx + r) * kWordBytes);
  EXPECT_EQ(j.row_bytes, inx * kWordBytes);
  EXPECT_EQ(j.rows, iny);
  EXPECT_EQ(j.tcdm_row_stride, static_cast<i32>(tnx * kWordBytes));
  EXPECT_EQ(j.mem_row_stride, static_cast<i64>(inx * kWordBytes));
  EXPECT_EQ(j.planes, inz);
  EXPECT_EQ(j.tcdm_plane_stride, static_cast<i32>(tnx * tny * kWordBytes));
  EXPECT_EQ(j.mem_plane_stride, static_cast<i64>(inx * kWordBytes) * iny);
}

TEST(TileDmaJob, RegionCopyLandsAtGridCoordinates) {
  // Functional check: a packed 3x2x2 region from main memory lands at the
  // right (x, y, z) element addresses of an 8x4 grid in TCDM.
  DmaRig rig;
  const u32 gnx = 8, gny = 4, x0 = 2, y0 = 1, z0 = 1;
  const u32 nx = 3, ny = 2, nz = 2;
  for (u32 i = 0; i < nx * ny * nz; ++i) {
    rig.mem.write_f64(8 * i, 100.0 + i);
  }
  rig.dma.push(make_tile_dma_job(/*to_tcdm=*/true, /*tcdm_base=*/0,
                                 /*mem_addr=*/0, gnx, gny, x0, y0, z0, nx,
                                 ny, nz));
  rig.run_to_idle();
  for (u32 z = 0; z < nz; ++z) {
    for (u32 y = 0; y < ny; ++y) {
      for (u32 x = 0; x < nx; ++x) {
        Addr elem = ((static_cast<Addr>(z0 + z) * gny + (y0 + y)) * gnx +
                     (x0 + x)) *
                    kWordBytes;
        EXPECT_DOUBLE_EQ(rig.tcdm.host_read_f64(elem),
                         100.0 + (z * ny + y) * nx + x)
            << "(" << x << "," << y << "," << z << ")";
      }
    }
  }
  EXPECT_EQ(rig.dma.bytes_moved(), static_cast<u64>(nx) * ny * nz * 8);
}

TEST(MainMemoryDeath, OutOfRangeAborts) {
  MainMemory m(16);
  EXPECT_DEATH(m.write_f64(16, 1.0), "out of range");
}

TEST(MainMemoryDeath, WrappingAddressAborts) {
  // Regression: the bound check used to be `addr + len <= size`, which
  // wraps for large u64 addr and let the access through to memcpy.
  MainMemory m(16);
  double v = 0.0;
  EXPECT_DEATH(m.read(~0ull - 7, &v, 16), "out of range");
  EXPECT_DEATH(m.write(~0ull - 7, &v, 8), "out of range");
  EXPECT_DEATH(m.read(8, &v, ~0ull - 4), "out of range");
}

}  // namespace
}  // namespace saris
