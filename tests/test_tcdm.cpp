// Unit tests: TCDM banking, arbitration, response timing, statistics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/tcdm.hpp"

namespace saris {
namespace {

TEST(Tcdm, Geometry) {
  Tcdm t;
  EXPECT_EQ(t.size_bytes(), 128u * 1024);
  EXPECT_EQ(t.num_banks(), 32u);
  EXPECT_EQ(t.bank_of(0), 0u);
  EXPECT_EQ(t.bank_of(8), 1u);
  EXPECT_EQ(t.bank_of(32 * 8), 0u);  // wraps around the banks
  EXPECT_EQ(t.bank_of(12), 1u);      // sub-word address in bank 1
}

TEST(Tcdm, SingleAccessRoundTrip) {
  Tcdm t;
  u32 p = t.make_port("p");
  t.host_write_u64(64, 0xDEADBEEFCAFEF00Dull);
  EXPECT_TRUE(t.port_idle(p));
  t.post(p, 64, 8, /*is_write=*/false, 0);
  EXPECT_FALSE(t.port_idle(p));
  EXPECT_FALSE(t.response_ready(p));
  t.arbitrate(0);
  EXPECT_TRUE(t.response_ready(p));
  EXPECT_EQ(t.take_response(p), 0xDEADBEEFCAFEF00Dull);
  EXPECT_TRUE(t.port_idle(p));
}

TEST(Tcdm, WriteThenReadBack) {
  Tcdm t;
  u32 p = t.make_port("p");
  t.post(p, 128, 8, /*is_write=*/true, 42);
  t.arbitrate(0);
  t.take_response(p);
  EXPECT_EQ(t.host_read_u64(128), 42u);
}

TEST(Tcdm, SubWordAccesses) {
  Tcdm t;
  u32 p = t.make_port("p");
  t.post(p, 16, 2, /*is_write=*/true, 0xBEEF);
  t.arbitrate(0);
  t.take_response(p);
  t.post(p, 20, 4, /*is_write=*/true, 0x11223344);
  t.arbitrate(1);
  t.take_response(p);
  t.post(p, 16, 8, /*is_write=*/false, 0);
  t.arbitrate(2);
  u64 word = t.take_response(p);
  EXPECT_EQ(word & 0xFFFF, 0xBEEFu);
  EXPECT_EQ(word >> 32, 0x11223344u);
}

TEST(Tcdm, DifferentBanksServeSameCycle) {
  Tcdm t;
  u32 a = t.make_port("a");
  u32 b = t.make_port("b");
  t.post(a, 0, 8, false, 0);
  t.post(b, 8, 8, false, 0);  // bank 1: no conflict
  t.arbitrate(0);
  EXPECT_TRUE(t.response_ready(a));
  EXPECT_TRUE(t.response_ready(b));
  EXPECT_EQ(t.total_conflicts(), 0u);
}

TEST(Tcdm, SameBankConflictsSerializes) {
  Tcdm t;
  u32 a = t.make_port("a");
  u32 b = t.make_port("b");
  t.post(a, 0, 8, false, 0);
  t.post(b, 32 * 8, 8, false, 0);  // same bank 0
  t.arbitrate(0);
  // Exactly one granted, one conflict recorded.
  EXPECT_NE(t.response_ready(a), t.response_ready(b));
  EXPECT_EQ(t.total_conflicts(), 1u);
  t.arbitrate(1);
  EXPECT_TRUE(t.response_ready(a));
  EXPECT_TRUE(t.response_ready(b));
}

TEST(Tcdm, RoundRobinIsFair) {
  Tcdm t;
  u32 a = t.make_port("a");
  u32 b = t.make_port("b");
  // Repeatedly contend on bank 0; each port must win half the time.
  u32 wins_a = 0, wins_b = 0;
  for (u32 i = 0; i < 10; ++i) {
    if (t.port_idle(a)) t.post(a, 0, 8, false, 0);
    if (t.port_idle(b)) t.post(b, 0, 8, false, 0);
    t.arbitrate(i);
    if (t.response_ready(a)) {
      t.take_response(a);
      ++wins_a;
    }
    if (t.response_ready(b)) {
      t.take_response(b);
      ++wins_b;
    }
  }
  EXPECT_EQ(wins_a, 5u);
  EXPECT_EQ(wins_b, 5u);
}

TEST(Tcdm, PendingRequestRetriesUntilGranted) {
  Tcdm t;
  u32 a = t.make_port("a");
  u32 b = t.make_port("b");
  t.post(a, 0, 8, false, 0);
  t.post(b, 0, 8, false, 0);
  t.arbitrate(0);
  // The loser stays pending without re-posting and wins next cycle.
  t.arbitrate(1);
  EXPECT_TRUE(t.response_ready(a));
  EXPECT_TRUE(t.response_ready(b));
}

// Ideal mode grants every request to a bank in the order they were posted,
// not in port order: a read posted after a same-cycle write to its word
// sees the new value, and one posted before it sees the old one.
TEST(Tcdm, IdealModeGrantsInPostOrder) {
  for (const bool write_first : {true, false}) {
    Tcdm t;
    t.set_ideal_arbitration(true);
    const u32 reader = t.make_port("reader");
    const u32 writer = t.make_port("writer");
    t.host_write_u64(64, 1);
    if (write_first) {
      t.post(writer, 64, 8, /*is_write=*/true, 2);
      t.post(reader, 64, 8, /*is_write=*/false, 0);
    } else {
      t.post(reader, 64, 8, /*is_write=*/false, 0);
      t.post(writer, 64, 8, /*is_write=*/true, 2);
    }
    t.arbitrate(0);
    EXPECT_EQ(t.take_response(reader), write_first ? 2u : 1u)
        << "write posted first: " << write_first;
    t.take_response(writer);
    EXPECT_EQ(t.host_read_u64(64), 2u);
    EXPECT_EQ(t.total_conflicts(), 0u);
  }
}

// Twelve ports per bank on two banks, every port re-posting each cycle, so
// both banks hold a request from all of their ports on every arbitration:
// the pending lists run at their full per-bank capacity. Round robin then
// grants each bank's ports in port order, one per cycle.
TEST(Tcdm, FullBanksGrantInPortOrder) {
  constexpr u32 kPerBank = 12;
  constexpr u32 kCycles = 36;
  Tcdm t;
  std::vector<u32> ports;
  for (u32 i = 0; i < 2 * kPerBank; ++i) {
    ports.push_back(t.make_port("p" + std::to_string(i)));
  }
  // Ports [0, 12) on bank 0, [12, 24) on bank 1, each at its own row.
  auto addr_of = [&](u32 i) -> Addr {
    const u32 bank = i / kPerBank;
    return (i * kTcdmBanks + bank) * kWordBytes;
  };
  for (Cycle cyc = 0; cyc < kCycles; ++cyc) {
    for (u32 p : ports) {
      if (t.response_ready(p)) t.take_response(p);
      if (t.port_idle(p)) t.post(p, addr_of(p), 8, false, 0);
    }
    t.arbitrate(cyc);
    for (u32 p : ports) {
      const bool expect = p % kPerBank == cyc % kPerBank;
      EXPECT_EQ(t.response_ready(p), expect)
          << "port " << p << " cycle " << cyc;
    }
  }
  for (u32 p : ports) {
    EXPECT_EQ(t.port_accesses(p), kCycles / kPerBank) << "port " << p;
    EXPECT_EQ(t.port_conflicts(p), kCycles - kCycles / kPerBank)
        << "port " << p;
  }
}

TEST(Tcdm, PerPortStats) {
  Tcdm t;
  u32 a = t.make_port("a");
  t.post(a, 0, 8, false, 0);
  t.arbitrate(0);
  t.take_response(a);
  EXPECT_EQ(t.port_accesses(a), 1u);
  EXPECT_EQ(t.port_conflicts(a), 0u);
  EXPECT_EQ(t.total_accesses(), 1u);
}

TEST(TcdmDeath, UnalignedAccessAborts) {
  Tcdm t;
  u32 p = t.make_port("p");
  EXPECT_DEATH(t.post(p, 4, 8, false, 0), "unaligned");
}

TEST(TcdmDeath, OutOfRangeAborts) {
  Tcdm t;
  u32 p = t.make_port("p");
  EXPECT_DEATH(t.post(p, 128 * 1024, 8, false, 0), "out of range");
}

// An access ending exactly at 4 GiB wraps a 32-bit end address to 0; the
// bounds checks must not be fooled into accepting it.
TEST(TcdmDeath, WrappingPostAborts) {
  Tcdm t;
  u32 p = t.make_port("p");
  EXPECT_DEATH(t.post(p, 0xFFFFFFF8u, 8, false, 0), "out of range");
}

TEST(TcdmDeath, WrappingHostReadAborts) {
  Tcdm t;
  u64 v = 0;
  EXPECT_DEATH(t.host_read(0xFFFFFFF8u, &v, 8), "out of range");
}

TEST(TcdmDeath, WrappingHostWriteAborts) {
  Tcdm t;
  u64 v = 0;
  EXPECT_DEATH(t.host_write(0xFFFFFFF8u, &v, 8), "out of range");
}

TEST(TcdmDeath, DoublePostAborts) {
  Tcdm t;
  u32 p = t.make_port("p");
  t.post(p, 0, 8, false, 0);
  EXPECT_DEATH(t.post(p, 8, 8, false, 0), "busy port");
}

// A granted response that was never taken still holds the port.
TEST(TcdmDeath, PostWithUnreadResponseAborts) {
  Tcdm t;
  u32 p = t.make_port("p");
  t.post(p, 0, 8, false, 0);
  t.arbitrate(0);
  EXPECT_DEATH(t.post(p, 8, 8, false, 0), "busy port");
}

TEST(TcdmDeath, BadSizeAborts) {
  Tcdm t;
  u32 p = t.make_port("p");
  EXPECT_DEATH(t.post(p, 0, 3, false, 0), "size");
}

}  // namespace
}  // namespace saris
