// Per-link bit-error-rate model for the ribbon's serial channels.
//
// Fibre-ribbon links fail bit-wise: a flipped priority or reservation
// bit silently misarbitrates a slot, a flipped payload bit silently
// corrupts the application's data -- neither kills the packet.  This
// model draws the bit flips a frame suffers while traversing a set of
// links, with every draw keyed on (slot, channel) coordinates via
// Rng::stream_seed -- no generator state is carried between calls, so
// fault streams are independent of workload streams and byte-identical
// across sweep thread counts (the same determinism contract as the
// sweep runner itself).  One instance models the control fibre and a
// second models the data fibres; both share the injector's seed, and
// their disjoint channel namespaces keep their streams independent.
//
// Path probabilities are a table filled at construction.  A frame whose
// exposure is fixed (a control record or packet) carries an Exposure
// with its no-flip floor: a draw whose first uniform lands at or above
// the floor has no flip, and costs the stream's seed hash plus one mix
// instead of a generator and two logarithms.  Below the floor the
// geometric walk runs on the same stream, so every count equals the
// walk's.
//
// The model is deliberately ignorant of frame layout: it flips bits in
// a raw MSB-first packed buffer.  Layout knowledge (which field a flip
// landed in, whether guards catch it) lives in core/frames.* and the
// fault injector.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "sim/rng.hpp"

namespace ccredf::phy {

class BitErrorModel {
 public:
  /// A frame's exposure: each of its `nbits` bits flips with probability
  /// `p`, and `floor` is no_flip_floor(p, nbits).
  struct Exposure {
    double p = 0.0;
    std::size_t nbits = 0;
    double floor = 0.0;
  };

  /// Uniform BER on every one of the ring's `nodes` links.
  BitErrorModel(NodeId nodes, double ber, std::uint64_t stream_seed);
  /// Per-link BER; link l connects node l to its downstream neighbour.
  BitErrorModel(std::vector<double> link_ber, std::uint64_t stream_seed);

  [[nodiscard]] NodeId nodes() const {
    return static_cast<NodeId>(link_ber_.size());
  }
  [[nodiscard]] double link_ber(LinkId link) const;
  /// True when at least one link has a non-zero error rate.
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Probability that a given bit is corrupted on the path starting at
  /// link `first` and spanning `hops` consecutive links:
  /// 1 - prod(1 - ber_l), multiplied in link order.  (An even number of
  /// flips of the SAME bit re-corrupting it back is negligible at
  /// realistic BERs and ignored.)  A lookup in the table the
  /// constructors fill.
  [[nodiscard]] double path_error_probability(LinkId first,
                                              NodeId hops) const;

  /// A first uniform u >= this value means an `nbits`-bit frame at
  /// per-bit probability `p` has no flip: the walk's first skip,
  /// floor(log1p(-u) / log1p(-p)), is then at least `nbits`.  It is
  /// q * (1 + 1e-6), where q = -expm1(nbits * log1p(-p)) is the chance
  /// of at least one flip; at u >= q the exact ratio is at least nbits,
  /// and the 1e-6 margin dwarfs the ulps the logarithms lose.
  [[nodiscard]] static double no_flip_floor(double p, std::size_t nbits);
  /// {p, nbits, no_flip_floor(p, nbits)}.
  [[nodiscard]] static Exposure exposure(double p, std::size_t nbits) {
    return {p, nbits, no_flip_floor(p, nbits)};
  }

  /// Flips each of the `nbits` MSB-first packed bits in `bytes`
  /// independently with probability `p`; returns the number of flips.
  /// All randomness is keyed on (slot, channel): two calls with the
  /// same coordinates flip the same bits, calls with different
  /// coordinates are statistically independent.  `channel` namespaces
  /// the frame (collection record of node j, distribution packet, ...).
  int corrupt(SlotIndex slot, std::uint64_t channel, double p,
              std::uint8_t* bytes, std::size_t nbits) const;

  /// Counts the flips an `nbits`-bit frame would suffer at probability
  /// `p`, without materialising any buffer -- the data-channel
  /// reliability model only needs to know whether (and how badly) a
  /// packet was hit, and the control-frame fault path builds a wire
  /// image only when the count is non-zero.  Keyed identically to
  /// corrupt(): the same (slot, channel, p, nbits) always yields the
  /// same count, and corrupt() then flips exactly that many bits.
  [[nodiscard]] int count_flips(SlotIndex slot, std::uint64_t channel,
                                double p, std::size_t nbits) const;
  /// count_flips(slot, channel, e.p, e.nbits), settled by hashing alone
  /// when the stream's first uniform is at or above `e.floor`.
  [[nodiscard]] int count_flips(SlotIndex slot, std::uint64_t channel,
                                const Exposure& e) const;

 private:
  int sample_flips(SlotIndex slot, std::uint64_t channel, double p,
                   std::uint8_t* bytes, std::size_t nbits) const;

  /// Fills path_p_ from link_ber_.
  void fill_paths();

  std::vector<double> link_ber_;
  /// path_error_probability(first, hops) at [first * (N + 1) + hops].
  std::vector<double> path_p_;
  std::uint64_t seed_;
  bool enabled_ = false;
};

}  // namespace ccredf::phy
