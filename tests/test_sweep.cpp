// Unit tests: sweep engine — thread-count resolution, job ordering, and the
// determinism contract (parallel results bit-identical to the sequential
// path, every simulation-determined field compared).
#include <gtest/gtest.h>

#include <cstdlib>

#include "runtime/sweep.hpp"
#include "stencil/codes.hpp"

namespace saris {
namespace {

TEST(SweepThreads, RequestedWinsAndClampsToJobs) {
  EXPECT_EQ(sweep_thread_count(3, 100), 3u);
  EXPECT_EQ(sweep_thread_count(8, 2), 2u);   // never more workers than jobs
  EXPECT_EQ(sweep_thread_count(0, 0), 1u);   // degenerate: at least one
  EXPECT_GE(sweep_thread_count(0, 100), 1u); // auto resolves to something
}

TEST(SweepThreads, EnvOverrideWhenNotRequested) {
  ASSERT_EQ(setenv("SARIS_SWEEP_THREADS", "5", /*overwrite=*/1), 0);
  EXPECT_EQ(sweep_thread_count(0, 100), 5u);
  EXPECT_EQ(sweep_thread_count(2, 100), 2u);  // explicit request wins
  ASSERT_EQ(unsetenv("SARIS_SWEEP_THREADS"), 0);
}

// A set-but-invalid SARIS_SWEEP_THREADS is a misconfiguration: it raises
// kBadConfig naming the value, not a silent clamp or a fall back to
// hardware concurrency.
TEST(SweepThreads, InvalidEnvValuesAreRejected) {
  auto with_env = [](const char* value) {
    ASSERT_EQ(setenv("SARIS_SWEEP_THREADS", value, /*overwrite=*/1), 0);
  };
  auto rejects = [&](const char* value, const std::string& why) {
    with_env(value);
    try {
      sweep_thread_count(0, 100);
      ADD_FAILURE() << "accepted \"" << value << "\"";
    } catch (const SimError& e) {
      const std::string msg = e.what();
      EXPECT_EQ(e.errc(), SimErrc::kBadConfig) << msg;
      EXPECT_NE(msg.find(why + " \"" + value + '"'), std::string::npos) << msg;
    }
  };
  rejects("0", "must be >= 1, got");
  rejects("-3", "must be >= 1, got");
  rejects("abc", "positive integer, got");
  rejects("4x", "positive integer, got");
  rejects("", "positive integer, got");
  rejects("99999999999999999999", "overflows:");  // > LONG_MAX: ERANGE
  rejects("5000000000", "overflows:");  // fits in long but not in u32
  // An explicit in-code request does not consult the (broken) environment.
  with_env("abc");
  EXPECT_EQ(sweep_thread_count(3, 100), 3u);
  ASSERT_EQ(unsetenv("SARIS_SWEEP_THREADS"), 0);
}

TEST(Sweep, EmptyJobListIsFine) {
  EXPECT_TRUE(run_sweep({}, 4).empty());
}

// A subset of the matrix spanning 2-D/3-D codes and both variants keeps the
// runtime reasonable while exercising every moving part: worker handoff,
// lazy-memory pooling under thread churn, and ordered result placement.
std::vector<SweepJob> subset_jobs() {
  std::vector<SweepJob> jobs;
  for (const char* name : {"jacobi_2d", "box2d1r", "star3d2r"}) {
    for (KernelVariant v : {KernelVariant::kBase, KernelVariant::kSaris}) {
      SweepJob j;
      j.code = &code_by_name(name);
      j.cfg.variant = v;
      j.label = std::string(name) + "/" + variant_name(v);
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

TEST(Sweep, ParallelBitIdenticalToSequential) {
  std::vector<SweepJob> jobs = subset_jobs();
  std::vector<RunMetrics> seq = run_sweep(jobs, /*threads=*/1);
  std::vector<RunMetrics> par = run_sweep(jobs, /*threads=*/4);
  ASSERT_EQ(seq.size(), jobs.size());
  ASSERT_EQ(par.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::string why;
    EXPECT_TRUE(metrics_bit_identical(seq[i], par[i], &why))
        << jobs[i].label << ": " << why;
  }
  // Results must sit at their job's index: adjacent (base, saris) pairs of
  // the same code differ (saris is the speedup claim of the whole paper),
  // so index-misplaced results cannot satisfy this.
  for (std::size_t i = 0; i + 1 < jobs.size(); i += 2) {
    EXPECT_GT(par[i].cycles, par[i + 1].cycles) << jobs[i].label;
  }
}

TEST(Sweep, ComparatorCatchesDivergence) {
  std::vector<SweepJob> jobs = subset_jobs();
  jobs.resize(1);
  std::vector<RunMetrics> m = run_sweep(jobs, 1);
  RunMetrics tweaked = m[0];
  tweaked.per_core[3].fpu_idle_empty += 1;
  std::string why;
  EXPECT_FALSE(metrics_bit_identical(m[0], tweaked, &why));
  EXPECT_EQ(why, "per_core[3].fpu_idle_empty");
  tweaked = m[0];
  tweaked.per_core[2].fp_offloads += 1;
  EXPECT_FALSE(metrics_bit_identical(m[0], tweaked, &why));
  EXPECT_EQ(why, "per_core[2].fp_offloads");
  // Host wall-clock is the one excluded field.
  tweaked = m[0];
  tweaked.step_wall_seconds *= 2;
  EXPECT_TRUE(metrics_bit_identical(m[0], tweaked, nullptr));
}

}  // namespace
}  // namespace saris
