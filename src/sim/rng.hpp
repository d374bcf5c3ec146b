// Deterministic pseudo-random number generation.
//
// Every stochastic experiment takes an explicit 64-bit seed so that runs
// are exactly reproducible.  The generator is xoshiro256** (Blackman &
// Vigna), which is fast, has 256 bits of state and passes BigCrush; the
// standard <random> engines are avoided because their distributions are
// not reproducible across standard-library implementations.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "sim/time.hpp"

namespace ccredf::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound), bias-free (rejection sampling).  A draw r is
  /// accepted when r >= (2^64 - bound) % bound and yields r % bound.  A
  /// power-of-two bound accepts every draw and masks it; any other bound
  /// accepts r >= bound before it computes that threshold, which is
  /// always below bound, so each try costs at most one division.
  std::uint64_t uniform_u64(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform01();

  /// Equals Rng(seed).uniform01(), but computes only the state word the
  /// first output reads (one splitmix64 finaliser): a keyed draw that
  /// needs a single uniform costs a hash, not a generator.
  static double first_uniform01(std::uint64_t seed);

  /// Uniform real in [lo, hi).
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Exponentially distributed value with the given mean (> 0).
  double exponential(double mean);

  /// Exponentially distributed duration with the given mean.
  Duration exponential(Duration mean);

  /// Normally distributed value (Box-Muller, one value per call).
  double normal(double mu, double sigma);

  /// Uniformly random index permutation of size n (Fisher-Yates).
  std::vector<std::size_t> permutation(std::size_t n);

  /// A generator for substream (a, b) of `base` (see stream_seed).
  static Rng stream(std::uint64_t base, std::uint64_t a, std::uint64_t b) {
    return Rng(stream_seed(base, a, b));
  }

  /// SplitMix-style counter-based stream derivation: maps (base, a, b) to
  /// a seed whose generators are statistically independent across distinct
  /// (a, b) pairs.  Derivation is stateless, so parallel workers can key
  /// their streams on (grid-point index, repetition) without any shared
  /// generator -- the foundation of the sweep runner's thread-count-
  /// independent determinism.
  static std::uint64_t stream_seed(std::uint64_t base, std::uint64_t a,
                                   std::uint64_t b);

 private:
  static std::uint64_t splitmix64(std::uint64_t& x);
  /// The splitmix64 output function of counter value `z`.
  static std::uint64_t mix64(std::uint64_t z);
  /// The xoshiro256** output of state word s_[1].
  static std::uint64_t scramble(std::uint64_t s1) {
    return std::rotl(s1 * 5, 7) * 9;
  }
  /// 53 high bits -> double in [0, 1).
  static double to_unit(std::uint64_t r) {
    return static_cast<double>(r >> 11) * 0x1.0p-53;
  }
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace ccredf::sim
