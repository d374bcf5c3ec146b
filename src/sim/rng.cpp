#include "sim/rng.hpp"

#include <bit>
#include <cmath>
#include <numbers>

namespace ccredf::sim {

namespace {
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;
}  // namespace

std::uint64_t Rng::mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t Rng::splitmix64(std::uint64_t& x) {
  x += kGolden;
  return mix64(x);
}

Rng::Rng(std::uint64_t seed) {
  // Seed expansion via splitmix64, per the xoshiro authors' recommendation;
  // guards against the all-zero state.
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix64(x);
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = scramble(s_[1]);
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform_u64(std::uint64_t bound) {
  CCREDF_EXPECT(bound > 0, "Rng::uniform_u64: bound must be positive");
  // Rejection against threshold (2^64 - bound) % bound avoids modulo
  // bias.  A power of two divides 2^64, so its threshold is 0.
  if ((bound & (bound - 1)) == 0) return next_u64() & (bound - 1);
  for (;;) {
    const std::uint64_t r = next_u64();
    // threshold < bound <= r: accepted without computing the threshold.
    if (r >= bound) return r % bound;
    // r < bound, so r % bound == r.
    if (r >= (~bound + 1) % bound) return r;
  }
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  CCREDF_EXPECT(lo <= hi, "Rng::uniform_int: empty range");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64());  // full range
  return lo + static_cast<std::int64_t>(uniform_u64(span));
}

double Rng::uniform01() { return to_unit(next_u64()); }

double Rng::first_uniform01(std::uint64_t seed) {
  // The constructor's second splitmix64 output is s_[1]; its all-zero
  // guard writes only s_[0], which the first output does not read.
  return to_unit(scramble(mix64(seed + 2 * kGolden)));
}

double Rng::uniform_real(double lo, double hi) {
  return lo + (hi - lo) * uniform01();
}

bool Rng::bernoulli(double p) { return uniform01() < p; }

double Rng::exponential(double mean) {
  CCREDF_EXPECT(mean > 0.0, "Rng::exponential: mean must be positive");
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;  // avoid log(0)
  return -mean * std::log(u);
}

Duration Rng::exponential(Duration mean) {
  const double ps = exponential(static_cast<double>(mean.ps()));
  return Duration::picoseconds(static_cast<std::int64_t>(ps));
}

double Rng::normal(double mu, double sigma) {
  double u1 = uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform01();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mu + sigma * mag * std::cos(2.0 * std::numbers::pi * u2);
}

std::vector<std::size_t> Rng::permutation(std::size_t n) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(uniform_u64(i));
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

std::uint64_t Rng::stream_seed(std::uint64_t base, std::uint64_t a,
                               std::uint64_t b) {
  // Each word passes through the full splitmix64 finaliser before the next
  // is absorbed, so streams that differ in a single bit of (base, a, b)
  // decorrelate completely.  Distinct odd multipliers keep (a, b) and
  // (b, a) from colliding.
  std::uint64_t x = base;
  std::uint64_t h = splitmix64(x);
  x ^= a * 0xA24BAED4963EE407ull;
  h ^= splitmix64(x);
  x ^= b * 0x9FB21C651E98DF25ull;
  h ^= splitmix64(x);
  return h;
}

}  // namespace ccredf::sim
