#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>

#include "common/error.hpp"

namespace ccredf::sim {
namespace {

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r(0);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 50; ++i) seen.insert(r.next_u64());
  EXPECT_GT(seen.size(), 45u);  // not stuck
}

TEST(Rng, Uniform01InRange) {
  Rng r(7);
  for (int i = 0; i < 10'000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng r(11);
  double sum = 0.0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += r.uniform01();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformU64RespectsBound) {
  Rng r(3);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(r.uniform_u64(7), 7u);
  }
}

TEST(Rng, UniformU64CoversAllResidues) {
  Rng r(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(r.uniform_u64(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformU64RejectsZeroBound) {
  Rng r(1);
  EXPECT_THROW((void)r.uniform_u64(0), ConfigError);
}

TEST(Rng, FirstUniform01EqualsAFreshGeneratorsFirstDraw) {
  // Edge seeds: 0, ~0, and the seeds whose second splitmix64 counter
  // value, seed + 2 * golden, is 0, 2^64 - 1 or 1.
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
  const std::array<std::uint64_t, 5> edges{0, ~0ull, 0 - 2 * kGolden,
                                           0 - 2 * kGolden - 1,
                                           0 - 2 * kGolden + 1};
  for (const std::uint64_t s : edges) {
    EXPECT_EQ(Rng::first_uniform01(s), Rng(s).uniform01()) << s;
  }
  // Half a million consecutive seeds, half a million scattered ones.
  Rng scatter(47);
  int mismatches = 0;
  for (std::uint64_t i = 0; i < 500'000; ++i) {
    for (const std::uint64_t s : {i, scatter.next_u64()}) {
      if (Rng::first_uniform01(s) != Rng(s).uniform01()) ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

/// uniform_u64 as it was written with two divisions per draw: the
/// threshold first, then the remainder of every accepted draw.
std::uint64_t two_division_uniform(Rng& r, std::uint64_t bound) {
  const std::uint64_t threshold = (~bound + 1) % bound;
  for (;;) {
    const std::uint64_t v = r.next_u64();
    if (v >= threshold) return v % bound;
  }
}

TEST(Rng, UniformU64MatchesTheTwoDivisionLoop) {
  // Same values, and the same number of raw draws consumed: after each
  // bound's run the twin generators are still in step.
  const std::array<std::uint64_t, 14> bounds{
      1, 2, 3, 6, 8, 16, 32, 33, 1901, 1ull << 32, (1ull << 32) + 1,
      1ull << 63, (1ull << 63) + 1, ~0ull};
  for (const std::uint64_t bound : bounds) {
    Rng fast(bound), slow(bound);
    int mismatches = 0;
    for (int i = 0; i < 100'000; ++i) {
      if (fast.uniform_u64(bound) != two_division_uniform(slow, bound)) {
        ++mismatches;
      }
    }
    EXPECT_EQ(mismatches, 0) << "bound " << bound;
    EXPECT_EQ(fast.next_u64(), slow.next_u64()) << "bound " << bound;
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng r(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2'000; ++i) {
    const auto v = r.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntRejectsEmptyRange) {
  Rng r(1);
  EXPECT_THROW((void)r.uniform_int(3, 2), ConfigError);
}

TEST(Rng, ExponentialMeanConverges) {
  Rng r(13);
  double sum = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.1);
}

TEST(Rng, ExponentialIsPositive) {
  Rng r(17);
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(r.exponential(1.0), 0.0);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  Rng r(1);
  EXPECT_THROW((void)r.exponential(0.0), ConfigError);
  EXPECT_THROW((void)r.exponential(-1.0), ConfigError);
}

TEST(Rng, ExponentialDuration) {
  Rng r(19);
  double sum_ns = 0.0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    sum_ns += r.exponential(Duration::nanoseconds(100)).ns();
  }
  EXPECT_NEAR(sum_ns / kN, 100.0, 3.0);
}

TEST(Rng, NormalMoments) {
  Rng r(23);
  double sum = 0.0, sq = 0.0;
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) {
    const double v = r.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.15);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(29);
  int hits = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, PermutationIsPermutation) {
  Rng r(31);
  auto p = r.permutation(20);
  std::sort(p.begin(), p.end());
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p[i], i);
}

TEST(Rng, PermutationShuffles) {
  Rng r(37);
  const auto p = r.permutation(50);
  std::size_t fixed = 0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] == i) ++fixed;
  }
  EXPECT_LT(fixed, 10u);
}

}  // namespace
}  // namespace ccredf::sim
