// Regression test: the pending-list TCDM round-robin arbiter must grant
// exactly as the dense O(banks x ports) reference arbiter it replaced did.
// The reference is gone; its result under adversarial traffic is pinned as
// a digest. Cycle-exactness of whole kernels is pinned by test_contract.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/tcdm.hpp"

namespace saris {
namespace {

TEST(ArbiterEquiv, RandomTrafficMatchesPinnedDigest) {
  // Adversarial traffic the kernels do not produce: twelve ports hammering
  // four banks in a deterministic xorshift mix. The digest folds every
  // response, the totals and the per-port statistics. It was recorded
  // while a dense O(banks x ports) reference arbiter still existed and
  // agreed, so a change to grant order, round-robin state or conflict
  // accounting moves it.
  Tcdm t;
  std::vector<u32> ports;
  for (u32 i = 0; i < 12; ++i) {
    ports.push_back(t.make_port("p" + std::to_string(i)));
  }
  u64 s = 0x9E3779B97F4A7C15ull;
  u64 digest = 0;
  for (Cycle cyc = 0; cyc < 5000; ++cyc) {
    for (u32 p : ports) {
      if (t.response_ready(p)) digest = digest * 31 + t.take_response(p);
      if (!t.port_idle(p)) continue;
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      if ((s & 3) == 0) continue;  // idle cycle for this port
      // Concentrate on 4 banks to force heavy conflicts.
      Addr addr = static_cast<Addr>(((s >> 8) & 3) * kWordBytes +
                                    ((s >> 16) & 31) * 32 * kWordBytes);
      bool is_write = (s & 4) != 0;
      t.post(p, addr, 8, is_write, s);
    }
    t.arbitrate(cyc);
  }
  digest = digest * 31 + t.total_accesses();
  digest = digest * 31 + t.total_conflicts();
  for (u32 p : ports) {
    digest = digest * 31 + t.port_accesses(p);
    digest = digest * 31 + t.port_conflicts(p);
  }
  EXPECT_EQ(digest, 0x40FF4BA3791D9DE3ull);
}

}  // namespace
}  // namespace saris
