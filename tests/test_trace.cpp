// Unit tests: activity tracing — timeline consistency with the aggregate
// utilization counters, ASCII rendering.
#include <gtest/gtest.h>

#include "runtime/kernel_runner.hpp"
#include "runtime/trace.hpp"
#include "stencil/codes.hpp"

namespace saris {
namespace {

TEST(Trace, TimelineMatchesAggregateUtilization) {
  const StencilCode& sc = code_by_name("box2d1r");
  RunConfig cfg;
  cfg.variant = KernelVariant::kSaris;
  cfg.record_timeline = true;
  RunMetrics m = run_kernel(sc, cfg);
  ASSERT_EQ(m.fpu_timeline.size(), m.cycles);
  u64 active = 0;
  for (u32 a : m.fpu_timeline) {
    EXPECT_LE(a, 8u);
    active += a;
  }
  double util_from_timeline =
      static_cast<double>(active) / (static_cast<double>(m.cycles) * 8);
  EXPECT_NEAR(util_from_timeline, m.fpu_util(), 1e-9);
}

TEST(Trace, TimelineOffByDefault) {
  const StencilCode& sc = code_by_name("jacobi_2d");
  RunConfig cfg;
  cfg.variant = KernelVariant::kBase;
  RunMetrics m = run_kernel(sc, cfg);
  EXPECT_TRUE(m.fpu_timeline.empty());
}

TEST(Trace, AsciiStripShape) {
  std::vector<u32> series(100, 8);
  std::string strip = ascii_activity_strip(series, 10);
  EXPECT_EQ(strip, "8888888888");
  series.assign(100, 0);
  EXPECT_EQ(ascii_activity_strip(series, 5), "00000");
  // Ramp: first half 0, second half 8.
  series.assign(100, 0);
  for (u32 i = 50; i < 100; ++i) series[i] = 8;
  std::string ramp = ascii_activity_strip(series, 4);
  EXPECT_EQ(ramp, "0088");
  EXPECT_TRUE(ascii_activity_strip({}, 8).empty());
}

TEST(Trace, SarisStripIsDenserThanBase) {
  const StencilCode& sc = code_by_name("j2d9pt");
  RunConfig cb;
  cb.variant = KernelVariant::kBase;
  cb.record_timeline = true;
  RunConfig cs = cb;
  cs.variant = KernelVariant::kSaris;
  RunMetrics mb = run_kernel(sc, cb);
  RunMetrics ms = run_kernel(sc, cs);
  auto density = [](const std::vector<u32>& t) {
    u64 sum = 0;
    for (u32 v : t) sum += v;
    return static_cast<double>(sum) / (8.0 * t.size());
  };
  EXPECT_GT(density(ms.fpu_timeline), density(mb.fpu_timeline) + 0.2);
}

}  // namespace
}  // namespace saris
