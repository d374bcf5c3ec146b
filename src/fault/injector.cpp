#include "fault/injector.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <utility>

#include "ring/segment.hpp"

namespace ccredf::fault {

namespace {
// Logical channels namespacing the keyed fault draws of one slot.  Two
// channels never share a stream, so adding a fault axis cannot shift
// the draws of another (the same property the sweep runner relies on).
constexpr std::uint64_t kChanDrop = 0;          // random token-loss draw
constexpr std::uint64_t kChanDistribution = 1;  // distribution-packet bits
constexpr std::uint64_t kChanBabble = 0x100;    // + node
constexpr std::uint64_t kChanCollection = 0x200;  // + node (BER)
constexpr std::uint64_t kChanTargeted = 0x300;    // + node (scheduled)
constexpr std::uint64_t kChanData = 0x400;        // + source (payload BER)
constexpr std::uint64_t kChanDataResidual = 0x500;  // + source (CRC forge)
// Tag separating the injector's stream family from workload streams
// derived from the same base seed.
constexpr std::uint64_t kFaultStreamTag = 0xFA;
}  // namespace

FaultInjector::FaultInjector(net::Network& net, std::uint64_t seed)
    : net_(net), seed_(sim::Rng::stream_seed(seed, kFaultStreamTag, 0)) {
  net_.set_fault_hook(*this);
}

sim::Rng FaultInjector::rng_at(SlotIndex slot,
                               std::uint64_t channel) const {
  return sim::Rng::stream(seed_, static_cast<std::uint64_t>(slot), channel);
}

std::optional<FaultInjector::TargetedFault> FaultInjector::take(
    std::vector<TargetedFault>& v, SlotIndex slot, NodeId node) {
  if (v.empty()) return std::nullopt;
  const auto key = std::make_pair(slot, node);
  const auto it = std::lower_bound(
      v.begin(), v.end(), key,
      [](const TargetedFault& f, const std::pair<SlotIndex, NodeId>& k) {
        return std::make_pair(f.slot, f.node) < k;
      });
  if (it == v.end() || it->slot != slot || it->node != node) {
    return std::nullopt;
  }
  const TargetedFault f = *it;
  v.erase(it);
  return f;
}

void FaultInjector::insert_sorted(std::vector<TargetedFault>& v,
                                  TargetedFault f) {
  const auto it = std::lower_bound(
      v.begin(), v.end(), f, [](const TargetedFault& a,
                                const TargetedFault& b) {
        return std::make_pair(a.slot, a.node) <
               std::make_pair(b.slot, b.node);
      });
  v.insert(it, f);
}

void FaultInjector::schedule_token_loss(SlotIndex slot) {
  const auto it = std::lower_bound(scheduled_losses_.begin(),
                                   scheduled_losses_.end(), slot);
  if (it != scheduled_losses_.end() && *it == slot) return;
  scheduled_losses_.insert(it, slot);
}

void FaultInjector::set_random_token_loss(double p) {
  CCREDF_EXPECT(p >= 0.0 && p < 1.0,
                "FaultInjector: loss probability out of [0,1)");
  random_loss_p_ = p;
}

void FaultInjector::schedule_node_failure(NodeId id, sim::TimePoint at) {
  arm_event(Action::kFail, id, at);
}

void FaultInjector::schedule_node_restore(NodeId id, sim::TimePoint at) {
  arm_event(Action::kRestore, id, at);
}

void FaultInjector::schedule_link_cut(LinkId l, sim::TimePoint at) {
  arm_event(Action::kCut, l, at);
}

void FaultInjector::schedule_link_splice(LinkId l, sim::TimePoint at) {
  arm_event(Action::kSplice, l, at);
}

void FaultInjector::arm_event(Action a, std::uint32_t id,
                              sim::TimePoint at) {
  CCREDF_EXPECT(id < net_.nodes(),
                "FaultInjector: node or link out of range");
  net_.sim().arm(at, *this, static_cast<std::uint32_t>(a) * kMaxNodes + id);
}

sim::TimePoint FaultInjector::arrive(std::uint32_t key) {
  const std::uint32_t id = key % kMaxNodes;
  switch (static_cast<Action>(key / kMaxNodes)) {
    case Action::kFail:
      net_.fail_node(id);
      break;
    case Action::kRestore:
      net_.restore_node(id);
      break;
    case Action::kCut:
      net_.cut_link(id);
      break;
    case Action::kSplice:
      net_.splice_link(id);
      break;
  }
  return sim::TimePoint::infinity();
}

void FaultInjector::set_control_ber(double ber) {
  ber_.emplace(net_.nodes(), ber, seed_);
  fill_exposures();
}

void FaultInjector::set_control_ber(std::vector<double> link_ber) {
  CCREDF_EXPECT(link_ber.size() == net_.nodes(),
                "FaultInjector: one BER per ring link required");
  ber_.emplace(std::move(link_ber), seed_);
  fill_exposures();
}

void FaultInjector::fill_exposures() {
  // A node writes its record `hop` links downstream of the master and
  // the record rides the rest of the ring back to the master; the
  // master's own record (hop 0) rides the whole loop.  Its first exposed
  // link is the writer's own.  The distribution packet is judged at its
  // worst-case receiver, N-1 links downstream of the master.
  const NodeId n = net_.nodes();
  const core::FrameCodec& codec = net_.codec();
  const auto request_bits = static_cast<std::size_t>(codec.request_bits());
  const auto distribution_bits =
      static_cast<std::size_t>(codec.distribution_bits());
  request_exposure_.clear();
  distribution_exposure_.clear();
  for (NodeId j = 0; j < n; ++j) {
    for (NodeId hop = 0; hop < n; ++hop) {
      request_exposure_.push_back(phy::BitErrorModel::exposure(
          ber_->path_error_probability(j, hop == 0 ? n : n - hop),
          request_bits));
    }
    distribution_exposure_.push_back(phy::BitErrorModel::exposure(
        ber_->path_error_probability(j, n - 1), distribution_bits));
  }
}

void FaultInjector::set_data_ber(double ber) {
  data_ber_.emplace(net_.nodes(), ber, seed_);
}

void FaultInjector::set_data_ber(std::vector<double> link_ber) {
  CCREDF_EXPECT(link_ber.size() == net_.nodes(),
                "FaultInjector: one data BER per ring link required");
  data_ber_.emplace(std::move(link_ber), seed_);
}

void FaultInjector::schedule_collection_drop(SlotIndex slot, NodeId node) {
  CCREDF_EXPECT(node < net_.nodes(), "FaultInjector: node out of range");
  insert_sorted(collection_drops_, TargetedFault{slot, node, 0});
}

void FaultInjector::schedule_collection_corruption(SlotIndex slot,
                                                   NodeId node, int bits) {
  CCREDF_EXPECT(node < net_.nodes(), "FaultInjector: node out of range");
  CCREDF_EXPECT(bits >= 1, "FaultInjector: must corrupt at least one bit");
  insert_sorted(collection_corruptions_, TargetedFault{slot, node, bits});
}

void FaultInjector::schedule_distribution_corruption(SlotIndex slot,
                                                     int bits) {
  CCREDF_EXPECT(bits >= 1, "FaultInjector: must corrupt at least one bit");
  insert_sorted(distribution_corruptions_, TargetedFault{slot, 0, bits});
}

void FaultInjector::schedule_payload_corruption(SlotIndex slot,
                                                NodeId node) {
  CCREDF_EXPECT(node < net_.nodes(), "FaultInjector: node out of range");
  insert_sorted(payload_corruptions_, TargetedFault{slot, node, 1});
}

void FaultInjector::set_babbling_node(NodeId id, double p) {
  CCREDF_EXPECT(id < net_.nodes(), "FaultInjector: node out of range");
  CCREDF_EXPECT(p >= 0.0 && p <= 1.0,
                "FaultInjector: babble probability out of [0,1]");
  babbler_ = id;
  babble_p_ = p;
}

SlotIndex FaultInjector::next_deadline_slot(SlotIndex from,
                                            SlotIndex limit) {
  if (limit <= from) return from;
  // Scheduled faults: the earliest entry at or after `from` caps the
  // quiet range (entries before `from` can never fire again -- slot
  // indices only grow).  Payload faults are exempt: an idle slot
  // completes no transfer, so filter_data is never consulted, exactly
  // as in slot-by-slot execution.
  const auto first_targeted = [from](const std::vector<TargetedFault>& v) {
    const auto it = std::lower_bound(
        v.begin(), v.end(), from,
        [](const TargetedFault& f, SlotIndex s) { return f.slot < s; });
    return it == v.end() ? std::numeric_limits<SlotIndex>::max() : it->slot;
  };
  SlotIndex lim = limit;
  {
    const auto it = std::lower_bound(scheduled_losses_.begin(),
                                     scheduled_losses_.end(), from);
    if (it != scheduled_losses_.end()) lim = std::min(lim, *it);
  }
  lim = std::min(lim, first_targeted(collection_drops_));
  lim = std::min(lim, first_targeted(collection_corruptions_));
  lim = std::min(lim, first_targeted(distribution_corruptions_));
  if (lim <= from) return from;

  // Random axes: replay the keyed draws of each slot.  Exposure is
  // constant across an idle stretch (master and failure set are frozen
  // while the engine fast-forwards), so each live record's table entry
  // is looked up once.
  const bool ber_active = ber_.has_value() && ber_->enabled();
  const NodeSet failed = net_.failed_nodes();
  const bool babble_active = babble_p_ > 0.0 && babbler_ != kInvalidNode &&
                             !failed.contains(babbler_);
  if (!ber_active && !babble_active && random_loss_p_ <= 0.0) return lim;

  const NodeId master = net_.current_master();
  const NodeId n = net_.nodes();
  std::array<const phy::BitErrorModel::Exposure*, kMaxNodes> collection{};
  std::size_t live = 0;
  std::array<NodeId, kMaxNodes> live_node{};
  if (ber_active) {
    for (NodeId h = 0; h < n; ++h) {
      const NodeId j = net_.topology().downstream(master, h);
      if (failed.contains(j)) continue;
      live_node[live] = j;
      collection[live] = &request_exposure_[std::size_t{j} * n + h];
      ++live;
    }
  }

  for (SlotIndex s = from; s < lim; ++s) {
    if (random_loss_p_ > 0.0 &&
        rng_at(s, kChanDrop).bernoulli(random_loss_p_)) {
      return s;
    }
    if (babble_active &&
        rng_at(s, kChanBabble + babbler_).bernoulli(babble_p_)) {
      return s;
    }
    if (!ber_active) continue;
    for (std::size_t i = 0; i < live; ++i) {
      if (ber_->count_flips(s, kChanCollection + live_node[i],
                            *collection[i]) != 0) {
        return s;
      }
    }
    if (ber_->count_flips(s, kChanDistribution,
                          distribution_exposure_[master]) != 0) {
      return s;
    }
  }
  return lim;
}

bool FaultInjector::drop_distribution(SlotIndex slot) {
  bool drop = false;
  const auto it = std::lower_bound(scheduled_losses_.begin(),
                                   scheduled_losses_.end(), slot);
  if (it != scheduled_losses_.end() && *it == slot) {
    scheduled_losses_.erase(it);
    drop = true;
  }
  if (!drop && random_loss_p_ > 0.0 &&
      rng_at(slot, kChanDrop).bernoulli(random_loss_p_)) {
    drop = true;
  }
  if (drop) ++injected_;
  return drop;
}

void FaultInjector::flip_bits(core::FrameCodec::Encoded& e, int bits,
                              SlotIndex slot, std::uint64_t channel) {
  sim::Rng rng = rng_at(slot, channel);
  std::vector<std::size_t> chosen;
  while (static_cast<int>(chosen.size()) < bits &&
         chosen.size() < e.bit_count) {
    const std::size_t pos = rng.uniform_u64(e.bit_count);
    if (std::find(chosen.begin(), chosen.end(), pos) != chosen.end()) {
      continue;
    }
    chosen.push_back(pos);
    e.bytes[pos / 8] ^= static_cast<std::uint8_t>(0x80u >> (pos % 8));
    ++bits_flipped_;
  }
}

net::FaultHook::RequestFault FaultInjector::filter_request(
    SlotIndex slot, NodeId hop, NodeId node, core::Request& rq) {
  if (take(collection_drops_, slot, node)) return RequestFault::kDropped;

  const core::FrameCodec& codec = net_.codec();
  const auto targeted = take(collection_corruptions_, slot, node);

  // Babbling node: fabricate a broadcast request whenever the node
  // would otherwise stay idle (it has no message, so any grant it wins
  // is pure waste).
  if (!targeted && node == babbler_ && !rq.wants_slot() &&
      babble_p_ > 0.0) {
    sim::Rng rng = rng_at(slot, kChanBabble + node);
    if (rng.bernoulli(babble_p_)) {
      const NodeSet dests = net_.broadcast_dests(node);
      const auto seg =
          ring::Segment::for_transmission(net_.topology(), node, dests);
      rq.priority = static_cast<core::Priority>(
          rng.uniform_int(1, codec.layout().max_level()));
      rq.links = seg.links();
      rq.dests = dests;
      return RequestFault::kSpurious;
    }
  }

  // Wire-image corruption: scheduled flips, else link bit errors.  The
  // keyed flip count decides first; a record the draw misses is only
  // field-checked, and a wire image is built for a hit alone.
  const bool ber_active = ber_.has_value() && ber_->enabled();
  if (!targeted && !ber_active) return RequestFault::kNone;
  const std::uint64_t channel = kChanCollection + node;
  const auto nbits = static_cast<std::size_t>(codec.request_bits());
  double p = 0.0;
  if (!targeted) {
    const phy::BitErrorModel::Exposure& e =
        request_exposure_[std::size_t{node} * net_.nodes() + hop];
    p = e.p;
    if (ber_->count_flips(slot, channel, e) == 0) {
      codec.check_request(rq);
      return RequestFault::kNone;
    }
  }
  core::FrameCodec::Encoded enc = codec.encode_request(rq);
  if (targeted) {
    flip_bits(enc, targeted->bits, slot, kChanTargeted + node);
  } else {
    // Same stream and length as the count: the same bits flip.
    bits_flipped_ += ber_->corrupt(slot, channel, p, enc.bytes.data(), nbits);
  }
  const auto checked = codec.decode_request_checked(enc, node);
  if (!checked.ok) return RequestFault::kDetected;
  if (checked.request == rq) return RequestFault::kNone;
  rq = checked.request;
  return RequestFault::kSilent;
}

net::FaultHook::DistributionFault FaultInjector::filter_distribution(
    SlotIndex slot, core::DistributionPacket& p) {
  const auto targeted = take(distribution_corruptions_, slot, 0);
  const bool ber_active = ber_.has_value() && ber_->enabled();
  if (!targeted && !ber_active) return DistributionFault::kNone;

  // Draw first, as for the request records.
  const core::FrameCodec& codec = net_.codec();
  double pb = 0.0;
  if (!targeted) {
    const phy::BitErrorModel::Exposure& e =
        distribution_exposure_[net_.current_master()];
    pb = e.p;
    if (ber_->count_flips(slot, kChanDistribution, e) == 0) {
      codec.check_distribution(p);
      return DistributionFault::kNone;
    }
  }
  core::FrameCodec::Encoded enc = codec.encode(p);
  if (targeted) {
    flip_bits(enc, targeted->bits, slot, kChanDistribution);
  } else {
    bits_flipped_ += ber_->corrupt(slot, kChanDistribution, pb,
                                   enc.bytes.data(), enc.bit_count);
  }
  const auto checked = codec.decode_distribution_checked(enc);
  if (!checked.ok) return DistributionFault::kDetected;
  if (checked.packet.hp_node != p.hp_node) {
    return DistributionFault::kSilentMaster;
  }
  if (!(checked.packet == p)) {
    p = checked.packet;
    return DistributionFault::kGrantView;
  }
  return DistributionFault::kNone;
}

net::FaultHook::DataFault FaultInjector::filter_data(
    SlotIndex slot, NodeId source, NodeId hops,
    std::int64_t payload_bits) {
  // The payload never rides the control channel, so no codec round-trip:
  // the flip count alone decides the outcome, and the receivers' guard
  // is the payload CRC-32 (or nothing).
  int flips = 0;
  if (take(payload_corruptions_, slot, source)) {
    flips = 1;
  } else if (data_ber_.has_value() && data_ber_->enabled()) {
    const double p = data_ber_->path_error_probability(source, hops);
    flips = data_ber_->count_flips(
        slot, kChanData + source, p,
        static_cast<std::size_t>(payload_bits));
  }
  if (flips == 0) return DataFault::kNone;
  data_bits_flipped_ += flips;
  if (!net_.config().with_payload_crc) return DataFault::kSilent;
  // CRC-32 residual: a corrupted packet forges a valid checksum with
  // probability 2^-32 per packet (keyed draw, deterministic).
  if (rng_at(slot, kChanDataResidual + source).uniform01() < 0x1p-32) {
    return DataFault::kSilent;
  }
  return DataFault::kDetected;
}

}  // namespace ccredf::fault
