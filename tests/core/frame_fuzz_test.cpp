// Seeded fuzzing of the control-frame decoders (PROTOCOL.md §7): random
// buffers of random byte and bit lengths, and valid frames with flipped
// bits, on every codec shape.  A checked decoder must classify every
// input (ok, or a reason); a strict decoder must return or throw
// ConfigError; no decoder may read past its buffer (the asan and ubsan
// presets catch a stray read); and a frame a checked decoder accepts
// must re-encode to the same bits.
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/frames.hpp"
#include "ring/segment.hpp"
#include "ring/topology.hpp"
#include "sim/rng.hpp"

namespace ccredf::core {
namespace {

constexpr int kInputsPerShape = 300;

struct Shape {
  NodeId nodes;
  bool crc;
  bool acks;
  bool nacks;
};

/// Ring sizes 2 to 64, with the frame CRC, the ack field and the NACK
/// field (which rides on the acks) on and off.
std::vector<Shape> shapes() {
  std::vector<Shape> out;
  for (const NodeId n : {2u, 5u, 8u, 33u, 64u}) {
    for (const bool crc : {false, true}) {
      out.push_back({n, crc, false, false});
      out.push_back({n, crc, true, false});
      out.push_back({n, crc, true, true});
    }
  }
  return out;
}

FrameCodec codec_of(const Shape& s) {
  return FrameCodec(s.nodes, PriorityLayout{}, s.acks, s.crc, s.nacks);
}

NodeSet random_set(NodeId n, sim::Rng& rng) {
  NodeSet set;
  for (NodeId j = 0; j < n; ++j) {
    if (rng.bernoulli(0.5)) set.insert(j);
  }
  return set;
}

/// A genuine record: idle (zero fields), or a live request whose
/// reservation is the segment from `source` to its furthest destination.
Request random_request(const FrameCodec& codec, NodeId source,
                       sim::Rng& rng) {
  Request rq;
  if (rng.bernoulli(0.25)) return rq;
  NodeSet dests = random_set(codec.nodes(), rng);
  dests.erase(source);
  if (dests.empty()) dests.insert((source + 1) % codec.nodes());
  const ring::RingTopology topo(codec.nodes());
  rq.priority = static_cast<Priority>(
      1 + rng.uniform_u64(codec.layout().max_level()));
  rq.links = ring::Segment::for_transmission(topo, source, dests).links();
  rq.dests = dests;
  return rq;
}

void flip(FrameCodec::Encoded& e, std::size_t pos) {
  e.bytes[pos / 8] ^= static_cast<std::uint8_t>(0x80u >> (pos % 8));
}

bool bit(const FrameCodec::Encoded& e, std::size_t pos) {
  return (e.bytes[pos / 8] & (0x80u >> (pos % 8))) != 0;
}

/// `re` carries exactly the first e.bit_count bits of `e`.
void expect_same_bits(const FrameCodec::Encoded& re,
                      const FrameCodec::Encoded& e) {
  ASSERT_EQ(re.bit_count, e.bit_count);
  for (std::size_t i = 0; i < e.bit_count; ++i) {
    ASSERT_EQ(bit(re, i), bit(e, i)) << "bit " << i;
  }
}

/// Feeds `e` to every decoder and checks the property.
void check_decoders(const FrameCodec& codec, const FrameCodec::Encoded& e,
                    NodeId source) {
  const auto rq = codec.decode_request_checked(e, source);
  EXPECT_NE(rq.ok, rq.reason != nullptr);
  if (rq.ok) expect_same_bits(codec.encode_request(rq.request), e);
  const auto dp = codec.decode_distribution_checked(e);
  EXPECT_NE(dp.ok, dp.reason != nullptr);
  if (dp.ok) expect_same_bits(codec.encode(dp.packet), e);
  try {
    (void)codec.decode_collection(e);
  } catch (const ConfigError&) {
  }
  try {
    (void)codec.decode_distribution(e);
  } catch (const ConfigError&) {
  }
}

TEST(FrameFuzz, RandomBuffersAreClassifiedWithinTheirBytes) {
  sim::Rng rng(20021015);
  for (const Shape& s : shapes()) {
    SCOPED_TRACE(testing::Message() << s.nodes << " nodes, crc " << s.crc
                                    << ", acks " << s.acks << ", nacks "
                                    << s.nacks);
    const FrameCodec codec = codec_of(s);
    const std::int64_t frame_bits[] = {codec.request_bits(),
                                       codec.distribution_bits(),
                                       codec.collection_bits()};
    for (int i = 0; i < kInputsPerShape; ++i) {
      // Half the inputs claim exactly one frame's bit count, so they pass
      // the bit-count check whatever the buffer really holds; half the
      // buffers are exactly long enough for that count.
      const auto want =
          static_cast<std::size_t>(frame_bits[rng.uniform_u64(3)]);
      FrameCodec::Encoded e;
      e.bytes.resize(rng.bernoulli(0.5)
                         ? (want + 7) / 8
                         : rng.uniform_u64((want + 7) / 8 + 3));
      for (auto& b : e.bytes) {
        b = static_cast<std::uint8_t>(rng.uniform_u64(256));
      }
      e.bit_count = rng.bernoulli(0.5) ? want
                                       : rng.uniform_u64(want + 17);
      check_decoders(codec, e,
                     static_cast<NodeId>(rng.uniform_u64(codec.nodes())));
    }
  }
}

TEST(FrameFuzz, FlippedValidFramesAreClassifiedOrRoundTrip) {
  sim::Rng rng(7);
  for (const Shape& s : shapes()) {
    SCOPED_TRACE(testing::Message() << s.nodes << " nodes, crc " << s.crc
                                    << ", acks " << s.acks << ", nacks "
                                    << s.nacks);
    const FrameCodec codec = codec_of(s);
    for (int i = 0; i < kInputsPerShape; ++i) {
      const auto source = static_cast<NodeId>(rng.uniform_u64(s.nodes));
      CollectionPacket cp;
      for (NodeId j = 0; j < s.nodes; ++j) {
        cp.requests.push_back(random_request(codec, j, rng));
      }
      DistributionPacket dp;
      dp.granted = random_set(s.nodes, rng);
      dp.hp_node = static_cast<NodeId>(rng.uniform_u64(s.nodes));
      dp.has_acks = s.acks;
      if (s.acks) dp.acks = random_set(s.nodes, rng);
      dp.has_nacks = s.nacks;
      if (s.nacks) dp.nacks = random_set(s.nodes, rng);

      const FrameCodec::Encoded record =
          codec.encode_request(cp.requests[source]);
      const FrameCodec::Encoded distribution = codec.encode(dp);
      ASSERT_TRUE(codec.decode_request_checked(record, source).ok);
      ASSERT_TRUE(codec.decode_distribution_checked(distribution).ok);
      for (FrameCodec::Encoded e : {record, distribution, codec.encode(cp)}) {
        const auto flips = rng.uniform_int(1, 3);
        for (std::int64_t f = 0; f < flips; ++f) {
          flip(e, rng.uniform_u64(e.bit_count));
        }
        check_decoders(codec, e, source);
      }
    }
  }
}

}  // namespace
}  // namespace ccredf::core
