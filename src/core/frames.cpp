#include "core/frames.hpp"

#include <string>

#include "common/error.hpp"

namespace ccredf::core {

namespace {
// Extracts the low `n` bits of a mask written MSB-first as node 0 first.
// We serialise mask fields node-0-first to match the figure's field order.
void write_mask(BitWriter& w, std::uint64_t mask, NodeId n) {
  for (NodeId i = 0; i < n; ++i) w.push_bit(((mask >> i) & 1u) != 0);
}

std::uint64_t read_mask(BitReader& r, NodeId n) {
  std::uint64_t mask = 0;
  for (NodeId i = 0; i < n; ++i) {
    if (r.pop_bit()) mask |= std::uint64_t{1} << i;
  }
  return mask;
}
}  // namespace

FrameCodec::FrameCodec(NodeId nodes, PriorityLayout layout, bool with_acks,
                       bool with_crc, bool with_nacks)
    : n_(nodes), layout_(layout), with_acks_(with_acks),
      with_crc_(with_crc), with_nacks_(with_nacks),
      idx_bits_(index_bits(nodes)) {
  CCREDF_EXPECT(nodes >= 2 && nodes <= kMaxNodes,
                "FrameCodec: node count out of range");
  CCREDF_EXPECT(!with_nacks || with_acks,
                "FrameCodec: the NACK field rides on top of the ack field");
  layout_.validate();
}

std::int64_t FrameCodec::request_bits() const {
  // prio + links + dests [+ per-request CRC]
  return layout_.field_bits + 2ll * n_ + (with_crc_ ? 8 : 0);
}

std::int64_t FrameCodec::collection_bits() const {
  // start + N request records
  return 1 + static_cast<std::int64_t>(n_) * request_bits();
}

std::int64_t FrameCodec::distribution_bits() const {
  // start + result bits + hp index + optional ack bits + optional NACK
  // bits + optional CRC
  std::int64_t bits = 1 + n_ + idx_bits_;
  if (with_acks_) bits += n_;
  if (with_nacks_) bits += n_;
  if (with_crc_) bits += 8;
  return bits;
}

void FrameCodec::check_request(const Request& rq) const {
  CCREDF_EXPECT(rq.priority <= layout_.max_level(),
                "Request: priority exceeds field width");
  // A node with nothing to send must zero the other fields (paper §3).
  if (!rq.wants_slot()) {
    CCREDF_EXPECT(rq.links.empty() && rq.dests.empty(),
                  "Request: idle request must carry zero fields");
  }
}

void FrameCodec::check_distribution(const DistributionPacket& p) const {
  CCREDF_EXPECT(p.hp_node < n_, "DistributionPacket: invalid hp-node index");
  CCREDF_EXPECT(p.has_acks == with_acks_,
                "DistributionPacket: ack field presence mismatch");
  CCREDF_EXPECT(p.has_nacks == with_nacks_,
                "DistributionPacket: NACK field presence mismatch");
}

namespace {
void write_request_fields(BitWriter& w, const Request& rq,
                          const PriorityLayout& layout, NodeId n,
                          bool with_crc) {
  const std::size_t first = w.bit_count();
  w.write(rq.priority, layout.field_bits);
  write_mask(w, rq.links.mask(), n);
  write_mask(w, rq.dests.mask(), n);
  if (with_crc) {
    w.write(crc8_bits(w.bytes(), first, w.bit_count() - first), 8);
  }
}

Request read_request_fields(BitReader& r, const PriorityLayout& layout,
                            NodeId n) {
  Request rq;
  rq.priority = static_cast<Priority>(r.read(layout.field_bits));
  rq.links = LinkSet::from_mask(read_mask(r, n));
  rq.dests = NodeSet::from_mask(read_mask(r, n));
  return rq;
}
}  // namespace

FrameCodec::Encoded FrameCodec::encode(const CollectionPacket& p) const {
  CCREDF_EXPECT(p.requests.size() == n_,
                "CollectionPacket: must carry one request per node");
  BitWriter w;
  w.push_bit(true);  // start bit
  for (const Request& rq : p.requests) {
    check_request(rq);
    write_request_fields(w, rq, layout_, n_, with_crc_);
  }
  return Encoded{w.bytes(), w.bit_count()};
}

FrameCodec::Encoded FrameCodec::encode_request(const Request& rq) const {
  check_request(rq);
  BitWriter w;
  write_request_fields(w, rq, layout_, n_, with_crc_);
  return Encoded{w.bytes(), w.bit_count()};
}

FrameCodec::Encoded FrameCodec::encode(const DistributionPacket& p) const {
  check_distribution(p);
  BitWriter w;
  w.push_bit(true);  // start bit
  write_mask(w, p.granted.mask(), n_);
  w.write(p.hp_node, idx_bits_);
  if (with_acks_) write_mask(w, p.acks.mask(), n_);
  if (with_nacks_) write_mask(w, p.nacks.mask(), n_);
  if (with_crc_) w.write(crc8_bits(w.bytes(), 0, w.bit_count()), 8);
  return Encoded{w.bytes(), w.bit_count()};
}

CollectionPacket FrameCodec::decode_collection(const Encoded& e) const {
  CCREDF_EXPECT(e.bit_count == static_cast<std::size_t>(collection_bits()),
                "CollectionPacket: wrong frame length");
  BitReader r(e.bytes, e.bit_count);
  CCREDF_EXPECT(r.pop_bit(), "CollectionPacket: missing start bit");
  CollectionPacket p;
  p.requests.reserve(n_);
  for (NodeId i = 0; i < n_; ++i) {
    const std::size_t first = e.bit_count - r.remaining();
    Request rq = read_request_fields(r, layout_, n_);
    if (with_crc_) {
      const auto crc = static_cast<std::uint8_t>(r.read(8));
      const std::size_t field_bits =
          static_cast<std::size_t>(request_bits()) - 8;
      CCREDF_EXPECT(crc == crc8_bits(e.bytes, first, field_bits),
                    "CollectionPacket: request CRC mismatch");
    }
    check_request(rq);
    p.requests.push_back(rq);
  }
  return p;
}

DistributionPacket FrameCodec::decode_distribution(const Encoded& e) const {
  const CheckedDistribution d = decode_distribution_checked(e);
  CCREDF_EXPECT(d.ok, std::string("DistributionPacket: ") + d.reason);
  return d.packet;
}

FrameCodec::CheckedRequest FrameCodec::decode_request_checked(
    const Encoded& e, NodeId source) const {
  CheckedRequest out;
  if (e.bit_count != static_cast<std::size_t>(request_bits()) ||
      e.bytes.size() * 8 < e.bit_count) {
    out.reason = "wrong record length";
    return out;
  }
  BitReader r(e.bytes, e.bit_count);
  Request rq = read_request_fields(r, layout_, n_);
  if (with_crc_) {
    const auto crc = static_cast<std::uint8_t>(r.read(8));
    if (crc != crc8_bits(e.bytes, 0, e.bit_count - 8)) {
      out.reason = "CRC mismatch";
      return out;
    }
  }
  if (!rq.wants_slot()) {
    // Paper §3: an idle node zeroes every field, so a priority of 0 with
    // a non-zero reservation or destination field is corruption.
    if (!rq.links.empty() || !rq.dests.empty()) {
      out.reason = "idle request with non-zero fields";
      return out;
    }
  } else {
    if (rq.dests.empty()) {
      out.reason = "live request with empty destination field";
      return out;
    }
    if (rq.links.empty()) {
      out.reason = "live request with empty reservation field";
      return out;
    }
    if (rq.dests.contains(source)) {
      out.reason = "request addresses its own source";
      return out;
    }
    // The reservation field of a genuine request is fully determined by
    // (source, dests): the consecutive links from the source through its
    // furthest destination (ring::Segment).  Any receiver can recompute
    // it with modular arithmetic alone, so a mismatch is corruption.
    // This guard also protects the arbiter's central invariant -- a
    // forged reservation not anchored at its source could make the
    // winning requester ungrantable (its own clock-break link inside
    // its claimed segment), which a genuine request never is.
    NodeId span = 0;
    for (NodeId hop = 1; hop < n_; ++hop) {
      if (rq.dests.contains((source + hop) % n_)) span = hop;
    }
    std::uint64_t expected = 0;
    for (NodeId hop = 0; hop < span; ++hop) {
      expected |= std::uint64_t{1} << ((source + hop) % n_);
    }
    if (rq.links.mask() != expected) {
      out.reason = "reservation field inconsistent with destinations";
      return out;
    }
  }
  out.request = rq;
  out.ok = true;
  return out;
}

FrameCodec::CheckedDistribution FrameCodec::decode_distribution_checked(
    const Encoded& e) const {
  CheckedDistribution out;
  if (e.bit_count != static_cast<std::size_t>(distribution_bits()) ||
      e.bytes.size() * 8 < e.bit_count) {
    out.reason = "wrong frame length";
    return out;
  }
  BitReader r(e.bytes, e.bit_count);
  if (!r.pop_bit()) {
    out.reason = "missing start bit";
    return out;
  }
  DistributionPacket p;
  p.granted = NodeSet::from_mask(read_mask(r, n_));
  p.hp_node = static_cast<NodeId>(r.read(idx_bits_));
  p.has_acks = with_acks_;
  if (with_acks_) p.acks = NodeSet::from_mask(read_mask(r, n_));
  p.has_nacks = with_nacks_;
  if (with_nacks_) p.nacks = NodeSet::from_mask(read_mask(r, n_));
  if (with_crc_) {
    const auto crc = static_cast<std::uint8_t>(r.read(8));
    if (crc != crc8_bits(e.bytes, 0, e.bit_count - 8)) {
      out.reason = "CRC mismatch";
      return out;
    }
  }
  if (p.hp_node >= n_) {
    // The hp field is ceil(log2 N) bits wide, so for non-power-of-two
    // rings an out-of-range index is detectable without any CRC.
    out.reason = "hp-node index out of range";
    return out;
  }
  out.packet = p;
  out.ok = true;
  return out;
}

}  // namespace ccredf::core
