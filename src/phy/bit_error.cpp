#include "phy/bit_error.hpp"

#include <cmath>

#include "common/error.hpp"

namespace ccredf::phy {

namespace {
void validate_ber(double ber) {
  CCREDF_EXPECT(ber >= 0.0 && ber < 1.0,
                "BitErrorModel: BER must be in [0, 1)");
}
}  // namespace

BitErrorModel::BitErrorModel(NodeId nodes, double ber,
                             std::uint64_t stream_seed)
    : seed_(stream_seed) {
  CCREDF_EXPECT(nodes >= 2 && nodes <= kMaxNodes,
                "BitErrorModel: node count out of range");
  validate_ber(ber);
  link_ber_.assign(nodes, ber);
  enabled_ = ber > 0.0;
  fill_paths();
}

BitErrorModel::BitErrorModel(std::vector<double> link_ber,
                             std::uint64_t stream_seed)
    : link_ber_(std::move(link_ber)), seed_(stream_seed) {
  CCREDF_EXPECT(link_ber_.size() >= 2 && link_ber_.size() <= kMaxNodes,
                "BitErrorModel: link count out of range");
  for (const double b : link_ber_) {
    validate_ber(b);
    if (b > 0.0) enabled_ = true;
  }
  fill_paths();
}

void BitErrorModel::fill_paths() {
  // One running product per first link: after h factors it is the
  // survival of an h-hop path, the same product in the same order.
  const std::size_t n = link_ber_.size();
  path_p_.assign(n * (n + 1), 0.0);
  for (std::size_t first = 0; first < n; ++first) {
    double survive = 1.0;
    for (std::size_t h = 1; h <= n; ++h) {
      survive *= 1.0 - link_ber_[(first + h - 1) % n];
      path_p_[first * (n + 1) + h] = 1.0 - survive;
    }
  }
}

double BitErrorModel::link_ber(LinkId link) const {
  CCREDF_EXPECT(link < link_ber_.size(),
                "BitErrorModel: link index out of range");
  return link_ber_[link];
}

double BitErrorModel::path_error_probability(LinkId first,
                                             NodeId hops) const {
  CCREDF_EXPECT(first < nodes(), "BitErrorModel: link index out of range");
  CCREDF_EXPECT(hops <= nodes(), "BitErrorModel: path longer than ring");
  return path_p_[std::size_t{first} * (nodes() + 1u) + hops];
}

double BitErrorModel::no_flip_floor(double p, std::size_t nbits) {
  const double q = -std::expm1(static_cast<double>(nbits) * std::log1p(-p));
  return q * (1.0 + 1e-6);
}

int BitErrorModel::corrupt(SlotIndex slot, std::uint64_t channel, double p,
                           std::uint8_t* bytes, std::size_t nbits) const {
  return sample_flips(slot, channel, p, bytes, nbits);
}

int BitErrorModel::count_flips(SlotIndex slot, std::uint64_t channel,
                               double p, std::size_t nbits) const {
  return sample_flips(slot, channel, p, nullptr, nbits);
}

int BitErrorModel::count_flips(SlotIndex slot, std::uint64_t channel,
                               const Exposure& e) const {
  // The walk's first uniform, without building the generator.
  const double u = sim::Rng::first_uniform01(sim::Rng::stream_seed(
      seed_, static_cast<std::uint64_t>(slot), channel));
  if (u >= e.floor) return 0;
  return sample_flips(slot, channel, e.p, nullptr, e.nbits);
}

int BitErrorModel::sample_flips(SlotIndex slot, std::uint64_t channel,
                                double p, std::uint8_t* bytes,
                                std::size_t nbits) const {
  if (p <= 0.0 || nbits == 0) return 0;
  CCREDF_EXPECT(p < 1.0, "BitErrorModel: corruption probability >= 1");
  sim::Rng rng =
      sim::Rng::stream(seed_, static_cast<std::uint64_t>(slot), channel);
  // Geometric skip sampling: instead of one Bernoulli draw per bit, draw
  // the gap to the next flipped bit directly -- O(flips), not O(bits),
  // so BER 1e-9 on a 100-bit frame costs one draw, not 100.
  const double log1mp = std::log1p(-p);
  int flips = 0;
  std::size_t pos = 0;
  while (true) {
    const double u = rng.uniform01();
    // skip = floor(log(1-u)/log(1-p)) is geometric with support {0,...}.
    const double skip = std::floor(std::log1p(-u) / log1mp);
    // Guard the double->index conversion: a huge skip means "no more
    // flips in this frame" long before the cast could overflow.
    if (!(skip < static_cast<double>(nbits - pos))) break;
    pos += static_cast<std::size_t>(skip);
    if (bytes != nullptr) {
      bytes[pos / 8] ^= static_cast<std::uint8_t>(0x80u >> (pos % 8));
    }
    ++flips;
    ++pos;
    if (pos >= nbits) break;
  }
  return flips;
}

}  // namespace ccredf::phy
