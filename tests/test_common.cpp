// Unit tests: common utilities (fixed-capacity queue, statistics helpers).
#include <gtest/gtest.h>

#include <deque>
#include <random>

#include "common/fixed_queue.hpp"
#include "common/stats.hpp"

namespace saris {
namespace {

TEST(FixedQueue, StartsEmpty) {
  FixedQueue<int, 4> q;
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.full());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 4u);
  EXPECT_EQ(q.space(), 4u);
}

TEST(FixedQueue, FifoOrder) {
  FixedQueue<int, 3> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_TRUE(q.full());
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  q.push(4);
  EXPECT_EQ(q.pop(), 3);
  EXPECT_EQ(q.pop(), 4);
  EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, FrontDoesNotPop) {
  FixedQueue<int, 2> q;
  q.push(7);
  EXPECT_EQ(q.front(), 7);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop(), 7);
}

// The ring's head wraps many times over a mixed push/pop sequence; every
// observable must match a std::deque driven the same way, including after a
// clear() taken while the head sits mid-buffer.
TEST(FixedQueue, RingMatchesDequeReference) {
  FixedQueue<int, 3> q;
  std::deque<int> ref;
  std::mt19937 rng(7);
  int next = 0;
  bool cleared_mid_ring = false;
  for (int step = 0; step < 400; ++step) {
    const unsigned r = rng() % 8;
    if (step == 200) {
      while (ref.size() < 2) {
        q.push(next);
        ref.push_back(next++);
      }
      q.pop();
      ref.pop_front();  // head is now non-zero
      q.clear();
      ref.clear();
      cleared_mid_ring = true;
    } else if (r < 4 && !ref.empty()) {
      ASSERT_EQ(q.pop(), ref.front());
      ref.pop_front();
    } else if (ref.size() < 3) {
      q.push(next);
      ref.push_back(next++);
    }
    ASSERT_EQ(q.size(), ref.size()) << "step " << step;
    ASSERT_EQ(q.space(), 3 - ref.size()) << "step " << step;
    ASSERT_EQ(q.full(), ref.size() == 3) << "step " << step;
    ASSERT_EQ(q.empty(), ref.empty()) << "step " << step;
    if (!ref.empty()) {
      ASSERT_EQ(q.front(), ref.front()) << "step " << step;
      ASSERT_EQ(q.back(), ref.back()) << "step " << step;
    }
  }
  EXPECT_TRUE(cleared_mid_ring);
  EXPECT_GT(next, 100);  // the head went round the 3-slot ring 30+ times
}

TEST(FixedQueue, ClearEmpties) {
  FixedQueue<int, 2> q;
  q.push(1);
  q.push(2);
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push(3);
  EXPECT_EQ(q.pop(), 3);
}

TEST(FixedQueueDeath, PushToFullAborts) {
  FixedQueue<int, 1> q;
  q.push(1);
  EXPECT_DEATH(q.push(2), "full");
}

TEST(FixedQueueDeath, PopFromEmptyAborts) {
  FixedQueue<int, 1> q;
  EXPECT_DEATH(q.pop(), "empty");
}

TEST(Stats, GeomeanOfEqualValues) {
  EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Stats, GeomeanKnownValue) {
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({2.0, 8.0, 32.0}), 8.0, 1e-12);
}

TEST(Stats, GeomeanBelowArithmeticMean) {
  std::vector<double> xs = {1.0, 2.0, 3.0, 10.0};
  EXPECT_LT(geomean(xs), mean(xs));
}

TEST(Stats, MeanMinMax) {
  std::vector<double> xs = {3.0, 1.0, 2.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.0);
  EXPECT_DOUBLE_EQ(min_of(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_of(xs), 3.0);
}

TEST(Stats, ImbalanceOfBalancedIsOne) {
  EXPECT_DOUBLE_EQ(imbalance_ratio({5.0, 5.0, 5.0}), 1.0);
}

TEST(Stats, ImbalanceRatio) {
  // max 6 over mean 4.
  EXPECT_DOUBLE_EQ(imbalance_ratio({2.0, 4.0, 6.0}), 1.5);
}

TEST(StatsDeath, GeomeanRejectsNonPositive) {
  EXPECT_DEATH(geomean({1.0, 0.0}), "positive");
}

TEST(StatsDeath, EmptyInputsAbort) {
  EXPECT_DEATH(geomean({}), "empty");
  EXPECT_DEATH(mean({}), "empty");
}

}  // namespace
}  // namespace saris
