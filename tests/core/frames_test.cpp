#include "core/frames.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/rng.hpp"

namespace ccredf::core {
namespace {

FrameCodec codec_n(NodeId n, bool acks = false) {
  return FrameCodec(n, PriorityLayout{}, acks);
}

CollectionPacket sample_collection(NodeId n) {
  CollectionPacket p;
  p.requests.resize(n);
  p.requests[0].priority = 31;
  p.requests[0].links = LinkSet::from_mask(0b0011);
  p.requests[0].dests = NodeSet::single(2);
  if (n > 2) {
    p.requests[2].priority = 5;
    p.requests[2].links = LinkSet::from_mask(0b0100);
    p.requests[2].dests = NodeSet::single(3);
  }
  return p;
}

TEST(FrameCodec, CollectionBitCountMatchesFig4) {
  // start + N * (5-bit prio + N-bit links + N-bit dests)
  EXPECT_EQ(codec_n(4).collection_bits(), 1 + 4 * (5 + 4 + 4));
  EXPECT_EQ(codec_n(16).collection_bits(), 1 + 16 * (5 + 16 + 16));
}

TEST(FrameCodec, DistributionBitCountMatchesFig5) {
  // start + N result bits + ceil(log2 N) index bits.
  EXPECT_EQ(codec_n(4).distribution_bits(), 1 + 4 + 2);
  EXPECT_EQ(codec_n(8).distribution_bits(), 1 + 8 + 3);
  EXPECT_EQ(codec_n(5).distribution_bits(), 1 + 5 + 3);
}

TEST(FrameCodec, AckFieldAddsNBits) {
  EXPECT_EQ(codec_n(8, true).distribution_bits(),
            codec_n(8, false).distribution_bits() + 8);
}

TEST(FrameCodec, CollectionRoundTrip) {
  const FrameCodec c = codec_n(5);
  const CollectionPacket p = sample_collection(5);
  const auto enc = c.encode(p);
  EXPECT_EQ(enc.bit_count, static_cast<std::size_t>(c.collection_bits()));
  EXPECT_EQ(c.decode_collection(enc), p);
}

TEST(FrameCodec, DistributionRoundTrip) {
  const FrameCodec c = codec_n(6);
  DistributionPacket p;
  p.granted = NodeSet::from_mask(0b100101);
  p.hp_node = 5;
  const auto enc = c.encode(p);
  EXPECT_EQ(enc.bit_count, static_cast<std::size_t>(c.distribution_bits()));
  EXPECT_EQ(c.decode_distribution(enc), p);
}

TEST(FrameCodec, DistributionRoundTripWithAcks) {
  const FrameCodec c = codec_n(6, true);
  DistributionPacket p;
  p.granted = NodeSet::from_mask(0b000011);
  p.hp_node = 1;
  p.has_acks = true;
  p.acks = NodeSet::from_mask(0b110000);
  const auto enc = c.encode(p);
  EXPECT_EQ(c.decode_distribution(enc), p);
}

TEST(FrameCodec, IdleRingEncodes) {
  const FrameCodec c = codec_n(4);
  CollectionPacket p;
  p.requests.resize(4);  // all priority 0
  const auto enc = c.encode(p);
  const auto back = c.decode_collection(enc);
  for (const auto& r : back.requests) {
    EXPECT_FALSE(r.wants_slot());
    EXPECT_TRUE(r.links.empty());
  }
}

TEST(FrameCodec, IdleRequestMustBeZeroed) {
  // Paper §3: priority 0 requires zeros in the other fields.
  const FrameCodec c = codec_n(4);
  CollectionPacket p;
  p.requests.resize(4);
  p.requests[1].links = LinkSet::from_mask(0b1);
  EXPECT_THROW((void)c.encode(p), ConfigError);
}

TEST(FrameCodec, DecodedIdleRequestMustBeZeroed) {
  // The decoder applies the same idle rule: a record with priority 0 and
  // one link bit set is not a frame the encoder produces.
  const FrameCodec c = codec_n(4);
  CollectionPacket p;
  p.requests.resize(4);
  auto enc = c.encode(p);
  // Record 1 starts after the start bit and record 0 (5 + 4 + 4 bits);
  // its first link bit follows its 5 priority bits.
  const std::size_t bit = 1 + 13 + 5;
  enc.bytes[bit / 8] |= static_cast<std::uint8_t>(0x80u >> (bit % 8));
  EXPECT_THROW((void)c.decode_collection(enc), ConfigError);
}

TEST(FrameCodec, PriorityWiderThanFieldRejected) {
  const FrameCodec c = codec_n(4);
  CollectionPacket p;
  p.requests.resize(4);
  p.requests[0].priority = 32;  // 5-bit field holds <= 31
  p.requests[0].dests = NodeSet::single(1);
  p.requests[0].links = LinkSet::from_mask(1);
  EXPECT_THROW((void)c.encode(p), ConfigError);
}

TEST(FrameCodec, WrongRequestCountRejected) {
  const FrameCodec c = codec_n(4);
  CollectionPacket p;
  p.requests.resize(3);
  EXPECT_THROW((void)c.encode(p), ConfigError);
}

TEST(FrameCodec, InvalidHpNodeRejected) {
  const FrameCodec c = codec_n(4);
  DistributionPacket p;
  p.hp_node = 4;
  EXPECT_THROW((void)c.encode(p), ConfigError);
  p.hp_node = kInvalidNode;
  EXPECT_THROW((void)c.encode(p), ConfigError);
}

TEST(FrameCodec, AckPresenceMismatchRejected) {
  const FrameCodec c = codec_n(4, true);
  DistributionPacket p;
  p.hp_node = 0;
  p.has_acks = false;
  EXPECT_THROW((void)c.encode(p), ConfigError);
}

TEST(FrameCodec, TruncatedFrameRejected) {
  const FrameCodec c = codec_n(4);
  auto enc = c.encode(sample_collection(4));
  enc.bit_count -= 1;
  EXPECT_THROW((void)c.decode_collection(enc), ConfigError);
}

TEST(FrameCodec, RandomisedRoundTrips) {
  sim::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const auto n = static_cast<NodeId>(2 + rng.uniform_u64(30));
    const FrameCodec c = codec_n(n);
    CollectionPacket p;
    p.requests.resize(n);
    for (NodeId i = 0; i < n; ++i) {
      if (rng.bernoulli(0.5)) continue;  // idle
      auto& r = p.requests[i];
      r.priority = static_cast<Priority>(1 + rng.uniform_u64(31));
      const std::uint64_t span = (n == 64) ? ~0ull
                                           : ((1ull << n) - 1);
      r.links = LinkSet::from_mask(rng.next_u64() & span);
      r.dests = NodeSet::from_mask(rng.next_u64() & span);
      if (r.links.empty()) r.links = LinkSet::from_mask(1);
      if (r.dests.empty()) r.dests = NodeSet::single((i + 1) % n);
    }
    const auto enc = c.encode(p);
    EXPECT_EQ(c.decode_collection(enc), p) << "n=" << n;

    DistributionPacket d;
    d.granted = NodeSet::from_mask(rng.next_u64() & ((1ull << n) - 1));
    d.hp_node = static_cast<NodeId>(rng.uniform_u64(n));
    const auto denc = c.encode(d);
    EXPECT_EQ(c.decode_distribution(denc), d) << "n=" << n;
  }
}

TEST(FrameCodec, ControlFitsWithinSlotForTypicalConfig) {
  // The whole point of Fig. 3: with B >= collection bits the arbitration
  // for slot N+1 completes during slot N.  For 16 nodes a collection
  // packet is 1 + 16*37 = 593 bits; a 600-byte slot spans 600 control
  // bits -- barely enough, which is why min_payload also matters.
  const FrameCodec c = codec_n(16);
  EXPECT_LE(c.collection_bits(), 600);
}

TEST(FrameCodec, RejectsBadNodeCounts) {
  EXPECT_THROW(FrameCodec(1, PriorityLayout{}, false), ConfigError);
  EXPECT_THROW(FrameCodec(65, PriorityLayout{}, false), ConfigError);
}

// -- frame-integrity extension (CRC + checked decoders) ------------------

FrameCodec codec_crc(NodeId n, bool acks = false) {
  return FrameCodec(n, PriorityLayout{}, acks, /*with_crc=*/true);
}

TEST(FrameCrc, Crc8DetectsEverySingleBitError) {
  // CRC-8 poly 0x07 has Hamming distance >= 2 at these lengths: flip any
  // one payload bit and the checksum changes.
  BitWriter w;
  w.write(0xDEADBEEFu, 32);
  const std::uint8_t good = crc8_bits(w.bytes(), 0, 32);
  for (std::size_t i = 0; i < 32; ++i) {
    auto bytes = w.bytes();
    bytes[i / 8] ^= static_cast<std::uint8_t>(0x80u >> (i % 8));
    EXPECT_NE(crc8_bits(bytes, 0, 32), good) << "bit " << i;
  }
}

TEST(FrameCrc, CrcLengthensFramesByEightBitsPerChecksum) {
  // One CRC per request record, one for the whole distribution packet.
  EXPECT_EQ(codec_crc(4).request_bits(), codec_n(4).request_bits() + 8);
  EXPECT_EQ(codec_crc(4).collection_bits(),
            codec_n(4).collection_bits() + 4 * 8);
  EXPECT_EQ(codec_crc(8).distribution_bits(),
            codec_n(8).distribution_bits() + 8);
}

TEST(FrameCrc, RoundTripsWithCrc) {
  const FrameCodec c = codec_crc(5);
  const CollectionPacket p = sample_collection(5);
  EXPECT_EQ(c.decode_collection(c.encode(p)), p);
  DistributionPacket d;
  d.granted = NodeSet::from_mask(0b10011);
  d.hp_node = 4;
  EXPECT_EQ(c.decode_distribution(c.encode(d)), d);
}

TEST(FrameCrc, StrictDecoderRejectsFlippedBit) {
  const FrameCodec c = codec_crc(5);
  auto enc = c.encode(sample_collection(5));
  enc.bytes[1] ^= 0x10u;  // inside request 0's fields
  EXPECT_THROW((void)c.decode_collection(enc), ConfigError);
}

TEST(FrameCrc, CheckedRequestAcceptsCleanRecord) {
  const FrameCodec c = codec_crc(5);
  Request rq;
  rq.priority = 9;
  rq.links = LinkSet::from_mask(0b00110);
  rq.dests = NodeSet::single(3);
  const auto checked = c.decode_request_checked(c.encode_request(rq), 1);
  ASSERT_TRUE(checked.ok) << checked.reason;
  EXPECT_EQ(checked.request, rq);
}

TEST(FrameCrc, CheckedRequestDetectsEverySingleBitFlip) {
  // Acceptance contract: with the CRC on, NO single-bit corruption of a
  // request record (priority, reservation or destination field) passes
  // the guards -- each is detected, never silently misarbitrated.
  const FrameCodec c = codec_crc(6);
  Request rq;
  rq.priority = 17;
  rq.links = LinkSet::from_mask(0b001111);  // source 0 -> furthest dest 4
  rq.dests = NodeSet::single(4);
  ASSERT_TRUE(c.decode_request_checked(c.encode_request(rq), 0).ok);
  const auto enc = c.encode_request(rq);
  for (std::size_t i = 0; i < enc.bit_count; ++i) {
    auto bad = enc;
    bad.bytes[i / 8] ^= static_cast<std::uint8_t>(0x80u >> (i % 8));
    const auto checked = c.decode_request_checked(bad, 0);
    EXPECT_FALSE(checked.ok) << "flip of bit " << i << " undetected";
  }
}

TEST(FrameCrc, GuardsCatchFieldImplausibilityWithoutCrc) {
  // Even the CRC-free codec rejects structurally impossible records.
  const FrameCodec c = codec_n(5);
  Request idle;  // priority 0 => all fields must be zero
  auto enc = c.encode_request(idle);
  // Flip a destination bit: "idle" with a non-zero field.
  const std::size_t dest_bit = 5 + 5;  // after prio + links fields
  enc.bytes[dest_bit / 8] ^=
      static_cast<std::uint8_t>(0x80u >> (dest_bit % 8));
  EXPECT_FALSE(c.decode_request_checked(enc, 0).ok);

  Request live;
  live.priority = 3;
  live.links = LinkSet::from_mask(0b00001);
  live.dests = NodeSet::single(1);
  // A live request whose destinations include its own source.
  auto self_enc = c.encode_request(live);
  const auto self = c.decode_request_checked(self_enc, 1);
  EXPECT_FALSE(self.ok);
}

TEST(FrameCrc, ReservationFieldMustMatchRecomputedSegment) {
  // links is redundant given (source, dests): the consecutive links
  // from the source through its furthest destination.  A mutated
  // reservation field is therefore detectable even without the CRC --
  // which also keeps the arbiter's winner-is-grantable invariant safe
  // from forged segments not anchored at their source.
  const FrameCodec c = codec_n(6);
  Request rq;
  rq.priority = 8;
  rq.dests = NodeSet::single(3);
  rq.links = LinkSet::from_mask(0b000111);  // source 0: links {0,1,2}
  EXPECT_TRUE(c.decode_request_checked(c.encode_request(rq), 0).ok);

  Request shifted = rq;  // not anchored at the source
  shifted.links = LinkSet::from_mask(0b001110);
  EXPECT_FALSE(c.decode_request_checked(c.encode_request(shifted), 0).ok);

  Request longer = rq;  // claims links past the furthest destination
  longer.links = LinkSet::from_mask(0b001111);
  EXPECT_FALSE(c.decode_request_checked(c.encode_request(longer), 0).ok);

  Request shorter = rq;  // too few links to reach the destination
  shorter.links = LinkSet::from_mask(0b000011);
  EXPECT_FALSE(c.decode_request_checked(c.encode_request(shorter), 0).ok);

  // Wrap-around segment: source 4 to dest 1 crosses links {4, 5, 0}.
  Request wrap;
  wrap.priority = 8;
  wrap.dests = NodeSet::single(1);
  wrap.links = LinkSet::from_mask(0b110001);
  EXPECT_TRUE(c.decode_request_checked(c.encode_request(wrap), 4).ok);
  EXPECT_FALSE(c.decode_request_checked(c.encode_request(wrap), 3).ok);
}

TEST(FrameCrc, CheckedDistributionClassifiesInsteadOfThrowing) {
  const FrameCodec c = codec_crc(6);
  DistributionPacket d;
  d.granted = NodeSet::from_mask(0b000110);
  d.hp_node = 2;
  const auto enc = c.encode(d);
  const auto ok = c.decode_distribution_checked(enc);
  ASSERT_TRUE(ok.ok);
  EXPECT_EQ(ok.packet, d);

  auto flipped = enc;
  flipped.bytes[0] ^= 0x02u;
  EXPECT_FALSE(c.decode_distribution_checked(flipped).ok);

  auto truncated = enc;
  truncated.bit_count -= 1;
  EXPECT_FALSE(c.decode_distribution_checked(truncated).ok);
}

TEST(FrameCrc, HpRangeGuardWorksWithoutCrc) {
  // 6 nodes need 3 index bits, so values 6 and 7 are encodable but
  // invalid -- the range guard alone catches them.
  const FrameCodec c = codec_n(6);
  DistributionPacket d;
  d.hp_node = 1;
  auto enc = c.encode(d);
  // hp field sits after start bit + 6 grant bits: bits 7..9.  Force 111.
  for (std::size_t i = 7; i <= 9; ++i) {
    enc.bytes[i / 8] |= static_cast<std::uint8_t>(0x80u >> (i % 8));
  }
  const auto checked = c.decode_distribution_checked(enc);
  EXPECT_FALSE(checked.ok);
  EXPECT_THROW((void)c.decode_distribution(enc), ConfigError);
}

// -- payload-NACK extension (data-channel reliability) -------------------

FrameCodec codec_nacks(NodeId n, bool crc = false) {
  return FrameCodec(n, PriorityLayout{}, /*with_acks=*/true, crc,
                    /*with_nacks=*/true);
}

TEST(FrameNack, NackFieldAddsNBits) {
  EXPECT_EQ(codec_nacks(8).distribution_bits(),
            codec_n(8, true).distribution_bits() + 8);
  EXPECT_EQ(codec_nacks(5).distribution_bits(),
            codec_n(5, true).distribution_bits() + 5);
}

TEST(FrameNack, DistributionRoundTripsWithNacks) {
  for (const bool crc : {false, true}) {
    const FrameCodec c = codec_nacks(6, crc);
    DistributionPacket p;
    p.granted = NodeSet::from_mask(0b000011);
    p.hp_node = 1;
    p.has_acks = true;
    p.acks = NodeSet::from_mask(0b110000);
    p.has_nacks = true;
    p.nacks = NodeSet::from_mask(0b001100);
    const auto enc = c.encode(p);
    EXPECT_EQ(enc.bit_count,
              static_cast<std::size_t>(c.distribution_bits()));
    EXPECT_EQ(c.decode_distribution(enc), p) << "crc=" << crc;
  }
}

TEST(FrameNack, NackPresenceMismatchRejected) {
  const FrameCodec c = codec_nacks(4);
  DistributionPacket p;
  p.hp_node = 0;
  p.has_acks = true;
  p.has_nacks = false;  // codec expects a nack field
  EXPECT_THROW((void)c.encode(p), ConfigError);
}

TEST(FrameNack, NacksRequireTheAckField) {
  // The NACK rides the same ack mechanism; a codec with nacks but no
  // acks is a configuration contradiction.
  EXPECT_THROW(FrameCodec(4, PriorityLayout{}, /*with_acks=*/false,
                          /*with_crc=*/false, /*with_nacks=*/true),
               ConfigError);
}

TEST(FrameCrc, CrcOffIsBitIdenticalToLegacyEncoding) {
  // The extension flag defaults off; default-constructed codecs must
  // produce byte-for-byte the frames the seed produced.
  const FrameCodec legacy = codec_n(5);
  const FrameCodec flag_off(5, PriorityLayout{}, false, false);
  const auto a = legacy.encode(sample_collection(5));
  const auto b = flag_off.encode(sample_collection(5));
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.bit_count, b.bit_count);
}

}  // namespace
}  // namespace ccredf::core
