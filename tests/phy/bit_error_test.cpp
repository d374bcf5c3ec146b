#include "phy/bit_error.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "sim/rng.hpp"

namespace ccredf::phy {
namespace {

constexpr std::uint64_t kSeed = 0x5EEDu;

std::vector<std::uint8_t> zeroes(std::size_t nbits) {
  return std::vector<std::uint8_t>((nbits + 7) / 8, 0);
}

TEST(BitErrorModel, ValidatesConstruction) {
  EXPECT_THROW(BitErrorModel(1, 0.0, kSeed), ConfigError);
  EXPECT_THROW(BitErrorModel(65, 0.0, kSeed), ConfigError);
  EXPECT_THROW(BitErrorModel(4, -0.1, kSeed), ConfigError);
  EXPECT_THROW(BitErrorModel(4, 1.0, kSeed), ConfigError);
  EXPECT_THROW(BitErrorModel(std::vector<double>{0.1}, kSeed), ConfigError);
  EXPECT_NO_THROW(BitErrorModel(4, 0.999, kSeed));
}

TEST(BitErrorModel, EnabledOnlyWithNonZeroRate) {
  EXPECT_FALSE(BitErrorModel(4, 0.0, kSeed).enabled());
  EXPECT_TRUE(BitErrorModel(4, 1e-6, kSeed).enabled());
  EXPECT_TRUE(
      BitErrorModel(std::vector<double>{0, 0, 1e-4, 0}, kSeed).enabled());
}

TEST(BitErrorModel, PathErrorProbabilityCompounds) {
  const BitErrorModel uniform(4, 0.1, kSeed);
  EXPECT_DOUBLE_EQ(uniform.path_error_probability(0, 1), 0.1);
  // 1 - (1 - 0.1)^2 over two links.
  EXPECT_NEAR(uniform.path_error_probability(0, 2), 0.19, 1e-12);
  // Full ring: 1 - 0.9^4.
  EXPECT_NEAR(uniform.path_error_probability(2, 4), 1.0 - 0.6561, 1e-12);

  // Per-link rates wrap around the ring from `first`.
  const BitErrorModel mixed(std::vector<double>{0.0, 0.5, 0.0, 0.0}, kSeed);
  EXPECT_DOUBLE_EQ(mixed.path_error_probability(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(mixed.path_error_probability(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(mixed.path_error_probability(3, 3), 0.5);
}

/// The product loop path_error_probability ran per call before the
/// constructors tabulated it.
double product_loop(const std::vector<double>& ber, LinkId first,
                    NodeId hops) {
  double survive = 1.0;
  for (NodeId i = 0; i < hops; ++i) {
    survive *= 1.0 - ber[(first + i) % ber.size()];
  }
  return 1.0 - survive;
}

TEST(BitErrorModel, PathTableIsBitwiseTheProductLoop) {
  for (const NodeId n : {NodeId{2}, NodeId{7}, NodeId{64}}) {
    std::vector<double> unequal(n);
    for (NodeId l = 0; l < n; ++l) {
      unequal[l] = l % 5 == 0 ? 0.0 : 1e-7 * (1 + (l * 37) % 11) * (l + 1);
    }
    unequal[n - 1] = 0.3;
    const std::vector<double> uniform(n, 3e-5);
    for (const auto& ber : {uniform, unequal}) {
      const BitErrorModel m(ber, kSeed);
      for (LinkId first = 0; first < n; ++first) {
        for (NodeId hops = 0; hops <= n; ++hops) {
          EXPECT_EQ(m.path_error_probability(first, hops),
                    product_loop(ber, first, hops))
              << n << " nodes, first " << first << ", hops " << hops;
        }
      }
    }
  }
  // The uniform constructor fills the same table.
  const BitErrorModel by_rate(7, 3e-5, kSeed);
  EXPECT_EQ(by_rate.path_error_probability(3, 7),
            product_loop(std::vector<double>(7, 3e-5), 3, 7));
}

TEST(BitErrorModel, FirstDrawsFromTheFloorUpFindNoFlip) {
  // The walk's first step, as the sampler computes it: zero flips
  // exactly when the first skip reaches past the frame.  Every 2^-53
  // grid value from the floor up must satisfy it.
  const std::array<double, 10> ps{1e-15, 1e-12, 1e-9, 3e-5, 2.6e-4,
                                   1e-3,  1e-2,  0.1,  0.5,  0.9};
  const std::array<std::size_t, 6> nbits_list{1, 7, 45, 200, 2720, 1'000'000};
  int checked = 0;
  for (const double p : ps) {
    for (const std::size_t nbits : nbits_list) {
      const double floor = BitErrorModel::no_flip_floor(p, nbits);
      if (floor >= 1.0) continue;  // no uniform settles this frame early
      const double first = std::ceil(std::ldexp(floor, 53));
      int violations = 0;
      for (int k = 0; k < 2000 && first + k < 0x1p53; ++k) {
        const double u = std::ldexp(first + k, -53);
        const double skip = std::floor(std::log1p(-u) / std::log1p(-p));
        if (skip < static_cast<double>(nbits)) ++violations;
        ++checked;
      }
      EXPECT_EQ(violations, 0) << "p " << p << ", nbits " << nbits;
    }
  }
  EXPECT_EQ(checked, 43 * 2000);  // 43 of the 60 cells have a floor below 1
}

TEST(BitErrorModel, ZeroProbabilityNeverFlips) {
  const BitErrorModel m(4, 0.5, kSeed);
  auto buf = zeroes(256);
  for (SlotIndex s = 0; s < 50; ++s) {
    EXPECT_EQ(m.corrupt(s, 0, 0.0, buf.data(), 256), 0);
  }
  EXPECT_EQ(buf, zeroes(256));
}

TEST(BitErrorModel, SameCoordinatesFlipTheSameBits) {
  const BitErrorModel m(4, 0.5, kSeed);
  auto a = zeroes(96);
  auto b = zeroes(96);
  const int fa = m.corrupt(17, 3, 0.25, a.data(), 96);
  const int fb = m.corrupt(17, 3, 0.25, b.data(), 96);
  EXPECT_EQ(fa, fb);
  EXPECT_EQ(a, b);
  EXPECT_GT(fa, 0);  // p = 0.25 over 96 bits: flipless is ~1e-12
}

TEST(BitErrorModel, DifferentCoordinatesAreIndependent) {
  const BitErrorModel m(4, 0.5, kSeed);
  auto by_slot = zeroes(96);
  auto by_chan = zeroes(96);
  auto base = zeroes(96);
  m.corrupt(17, 3, 0.25, base.data(), 96);
  m.corrupt(18, 3, 0.25, by_slot.data(), 96);
  m.corrupt(17, 4, 0.25, by_chan.data(), 96);
  EXPECT_NE(base, by_slot);
  EXPECT_NE(base, by_chan);
}

TEST(BitErrorModel, FlipCountTracksProbability) {
  // Mean flips per frame = p * nbits; over many keyed frames the
  // empirical mean must land close (law of large numbers, fixed seed).
  const BitErrorModel m(4, 0.5, kSeed);
  const double p = 0.1;
  const std::size_t nbits = 200;
  std::int64_t total = 0;
  const int frames = 2000;
  for (SlotIndex s = 0; s < frames; ++s) {
    auto buf = zeroes(nbits);
    total += m.corrupt(s, 9, p, buf.data(), nbits);
  }
  const double mean = static_cast<double>(total) / frames;
  EXPECT_NEAR(mean, p * static_cast<double>(nbits), 1.0);
}

TEST(BitErrorModel, FlipsStayInsideTheBitRange) {
  // nbits not byte-aligned: bits past nbits (padding in the last byte)
  // must never be touched.
  const BitErrorModel m(4, 0.5, kSeed);
  const std::size_t nbits = 13;  // 2 bytes, 3 padding bits
  for (SlotIndex s = 0; s < 500; ++s) {
    auto buf = zeroes(nbits);
    m.corrupt(s, 1, 0.9, buf.data(), nbits);
    EXPECT_EQ(buf[1] & 0x07u, 0) << "padding bit flipped at slot " << s;
  }
}

TEST(BitErrorModel, CertainCorruptionHitsEveryFrame) {
  const BitErrorModel m(4, 0.5, kSeed);
  for (SlotIndex s = 0; s < 100; ++s) {
    auto buf = zeroes(32);
    EXPECT_GT(m.corrupt(s, 2, 0.999999, buf.data(), 32), 0);
  }
}

TEST(BitErrorModel, CountFlipsMatchesCorruptExactly) {
  // The bufferless payload sampler must agree flip-for-flip with the
  // buffer-materialising path at every coordinate -- the reliability
  // model's verdicts are then provably the same ones a real corrupted
  // buffer would have produced.
  const BitErrorModel m(4, 0.5, kSeed);
  const std::size_t nbits = 340 * 8;  // a typical slot payload
  for (SlotIndex s = 0; s < 200; ++s) {
    auto buf = zeroes(nbits);
    const int flipped = m.corrupt(s, 7, 1e-3, buf.data(), nbits);
    EXPECT_EQ(m.count_flips(s, 7, 1e-3, nbits), flipped) << "slot " << s;
  }
  // The floor form settles most keys by hash alone and must give the
  // walk's count on every one of them.
  for (const double p : {1e-7, 3e-5, 2.6e-4, 1e-3, 1e-2}) {
    for (const std::size_t bits : std::array<std::size_t, 4>{8, 45, 61, 2720}) {
      const BitErrorModel::Exposure e = BitErrorModel::exposure(p, bits);
      int mismatches = 0;
      std::int64_t hit = 0;
      for (SlotIndex s = 0; s < 200'000; ++s) {
        const auto channel = static_cast<std::uint64_t>(0x200 + s % 16);
        const int walked = m.count_flips(s, channel, p, bits);
        if (m.count_flips(s, channel, e) != walked) ++mismatches;
        if (walked != 0) ++hit;
      }
      EXPECT_EQ(mismatches, 0) << "p " << p << ", nbits " << bits;
      if (p >= 3e-5) {
        EXPECT_GT(hit, 0) << "p " << p << ", nbits " << bits;
      }
    }
  }
}

TEST(BitErrorModel, CountFlipsIsDeterministicAndKeyed) {
  const BitErrorModel m(4, 0.5, kSeed);
  EXPECT_EQ(m.count_flips(17, 3, 0.25, 96), m.count_flips(17, 3, 0.25, 96));
  EXPECT_EQ(m.count_flips(5, 1, 0.0, 4096), 0);
  // Over many frames the empirical mean tracks p * nbits, as corrupt().
  std::int64_t total = 0;
  for (SlotIndex s = 0; s < 2000; ++s) {
    total += m.count_flips(s, 9, 0.1, 200);
  }
  EXPECT_NEAR(static_cast<double>(total) / 2000.0, 20.0, 1.0);
}

TEST(BitErrorModel, SeedChangesTheStream) {
  const BitErrorModel a(4, 0.5, kSeed);
  const BitErrorModel b(4, 0.5, kSeed + 1);
  auto ba = zeroes(96);
  auto bb = zeroes(96);
  a.corrupt(5, 0, 0.25, ba.data(), 96);
  b.corrupt(5, 0, 0.25, bb.data(), 96);
  EXPECT_NE(ba, bb);
}

}  // namespace
}  // namespace ccredf::phy
