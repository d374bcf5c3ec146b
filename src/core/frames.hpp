// TCMA control-channel frames, bit-exact (paper Fig. 4-5).
//
// Collection-phase packet (built hop by hop, master receives it whole):
//   start bit | request[0] | request[1] | ... | request[N-1]
//   request  = priority (5 bits) | link reservation (N bits)
//            | destination field (N bits)
//
// Distribution-phase packet (master -> all, end aligned with slot end):
//   start bit | request results (N bits, 1 = granted)
//   | index of hp-node (ceil(log2 N) bits)
//   | other fields: ack bits (N bits, reliable service [11]), present when
//     the network enables reliable transmission; NACK bits (N bits),
//     present when the payload CRC-32 extension rides on top of the ack
//     field -- a set bit tells that source its previous slot's transfer
//     failed the receivers' payload check (PROTOCOL.md §7.3).
//
// A node with nothing to send writes priority 0 and zeroes in the other
// fields (paper §3).
//
// Frame-integrity extension (with_crc, our robustness addition beyond the
// paper): each request record carries a trailing CRC-8 over its own bits
// (appended by the requesting node as the collection packet passes), and
// the distribution packet carries a whole-frame CRC-8 (computed by the
// master).  Together with the start-bit and field-plausibility checks in
// the *_checked decoders this lets nodes DETECT control-channel bit
// errors instead of acting on garbage -- see PROTOCOL.md §7.
#pragma once

#include <cstdint>
#include <vector>

#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "core/bits.hpp"
#include "core/priority.hpp"

namespace ccredf::core {

/// One node's slot request inside the collection packet.
struct Request {
  Priority priority = 0;  // 0 = nothing to send
  LinkSet links;          // link reservation field
  NodeSet dests;          // destination field

  [[nodiscard]] bool wants_slot() const { return priority != 0; }
  bool operator==(const Request&) const = default;
};

struct CollectionPacket {
  std::vector<Request> requests;  // exactly N entries, indexed by node

  bool operator==(const CollectionPacket&) const = default;
};

struct DistributionPacket {
  NodeSet granted;                // request-result bits
  NodeId hp_node = kInvalidNode;  // index of the highest-priority node ==
                                  // next master; when no node requested,
                                  // arbitration sets this to the current
                                  // master (it keeps the role), so the
                                  // field is always a valid index on wire
  bool has_acks = false;
  NodeSet acks;  // per-source ack of the previous slot's transfers
  bool has_nacks = false;
  NodeSet nacks;  // per-source NACK: the previous slot's transfer failed
                  // the receivers' payload CRC (with_payload_crc runs)

  bool operator==(const DistributionPacket&) const = default;
};

/// Encodes/decodes the frames for an N-node ring with the given priority
/// layout.  The encoded bit counts are the exact control-channel occupancy
/// used in the timing model.
class FrameCodec {
 public:
  FrameCodec(NodeId nodes, PriorityLayout layout, bool with_acks,
             bool with_crc = false, bool with_nacks = false);

  [[nodiscard]] NodeId nodes() const { return n_; }
  [[nodiscard]] const PriorityLayout& layout() const { return layout_; }
  [[nodiscard]] bool with_crc() const { return with_crc_; }
  [[nodiscard]] bool with_nacks() const { return with_nacks_; }

  /// Bits in a complete collection packet (start + N requests).
  [[nodiscard]] std::int64_t collection_bits() const;
  /// Bits in a distribution packet (start + results + index + extras).
  [[nodiscard]] std::int64_t distribution_bits() const;
  /// Bits of one request record inside the collection packet (priority +
  /// links + dests [+ CRC]) -- the unit a corruption model flips bits in.
  [[nodiscard]] std::int64_t request_bits() const;

  struct Encoded {
    std::vector<std::uint8_t> bytes;
    std::size_t bit_count = 0;
  };

  /// The field checks every encoder applies (ConfigError on failure): a
  /// request's priority fits its field and an idle request carries zero
  /// fields (paper §3); a distribution packet's hp-node index is in range
  /// and its ack/NACK fields match this codec.  The fault path calls them
  /// on the frames it does not encode.
  void check_request(const Request& rq) const;
  void check_distribution(const DistributionPacket& p) const;

  [[nodiscard]] Encoded encode(const CollectionPacket& p) const;
  [[nodiscard]] Encoded encode(const DistributionPacket& p) const;
  /// Wire image of a single request record (no start bit).
  [[nodiscard]] Encoded encode_request(const Request& rq) const;
  /// The plain decoders return only frames the encoders accept and
  /// throw ConfigError on anything else: a wrong length, a missing start
  /// bit, a CRC mismatch, and every field the encoder checks refuse.
  /// decode_distribution is decode_distribution_checked throwing its
  /// reason.
  [[nodiscard]] CollectionPacket decode_collection(const Encoded& e) const;
  [[nodiscard]] DistributionPacket decode_distribution(const Encoded& e)
      const;

  // -- integrity-checked decoding (fault paths) ---------------------------
  //
  // The plain decoders above throw on malformed frames -- right for
  // trusted in-process round trips, wrong for a receiver that must
  // survive corruption.  The checked decoders classify instead of throw:
  // ok == false means the guards rejected the frame and the receiver
  // must fall back to its containment action (treat the request as idle,
  // or treat the distribution as a lost token).  Every decoder reads only
  // within `bytes`: a bit count the buffer cannot hold is a wrong length
  // (checked) or a ConfigError (plain).

  struct CheckedRequest {
    Request request;
    bool ok = false;
    const char* reason = nullptr;  // static string when !ok
  };
  struct CheckedDistribution {
    DistributionPacket packet;
    bool ok = false;
    const char* reason = nullptr;
  };

  /// Decodes and integrity-checks one request record as the master does:
  /// CRC (when enabled), the paper-§3 idle rule (priority 0 => zeroed
  /// fields), non-empty reservation/destination fields for a live
  /// request, and source-consistency (`source` cannot address itself).
  [[nodiscard]] CheckedRequest decode_request_checked(const Encoded& e,
                                                      NodeId source) const;

  /// Decodes and integrity-checks a distribution packet as a receiver
  /// does: length, start bit, CRC (when enabled) and hp-index range.
  [[nodiscard]] CheckedDistribution decode_distribution_checked(
      const Encoded& e) const;

 private:
  NodeId n_;
  PriorityLayout layout_;
  bool with_acks_;
  bool with_crc_;
  bool with_nacks_;
  unsigned idx_bits_;
};

}  // namespace ccredf::core
