#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sim/rng.hpp"

namespace ccredf::sim {
namespace {

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, SingleValue) {
  OnlineStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(OnlineStats, KnownSequence) {
  OnlineStats s;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of that classic sequence is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, WelfordMatchesNaiveOnRandomData) {
  Rng rng(5);
  OnlineStats s;
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 10'000;
  for (int i = 0; i < kN; ++i) {
    const double v = rng.uniform_real(-100.0, 100.0);
    s.add(v);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = (sq - sum * mean) / (kN - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, 1e-6);
}

TEST(OnlineStats, MergeEqualsSequential) {
  Rng rng(6);
  OnlineStats whole, a, b;
  for (int i = 0; i < 1'000; ++i) {
    const double v = rng.normal(3.0, 2.0);
    whole.add(v);
    (i % 2 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2);
  b.merge(a);
  EXPECT_EQ(b.count(), 2);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(OnlineStats, DurationOverloads) {
  OnlineStats s;
  s.add(Duration::nanoseconds(10));
  s.add(Duration::nanoseconds(20));
  EXPECT_EQ(s.mean_duration(), Duration::nanoseconds(15));
  EXPECT_EQ(s.max_duration(), Duration::nanoseconds(20));
  EXPECT_EQ(s.min_duration(), Duration::nanoseconds(10));
}

}  // namespace
}  // namespace ccredf::sim
