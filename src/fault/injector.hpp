// Fault injection (grows the paper's §8 future-work sketch into a
// physical error model).
//
// Fault families:
//   * token loss -- the distribution packet ending a chosen slot is
//     destroyed, so no node learns the next master; the network recovers
//     through the designated-restarter timeout built into the engine
//     (paper §8: "a time out and a designated node that always will
//     start could solve this");
//   * fail-silent node -- a node stops requesting, transmitting and
//     receiving at a chosen time (its ribbon is optically bypassed);
//     if it was the master, the clock dies and the token-loss recovery
//     path kicks in;
//   * control-channel bit errors -- every control-frame bit is flipped
//     independently per traversed link with the configured BER
//     (phy::BitErrorModel); the keyed flip count decides first, and a
//     frame it misses is only field-checked.  Setting the BER fills one
//     exposure table per frame kind -- request records by (node, hop),
//     the distribution packet by master -- whose no-flip floors settle
//     nearly every draw by hashing alone.  On a hit the injector
//     encodes the in-flight frame, flips the same bits on the wire
//     image, and classifies the outcome with the integrity-checked
//     decoders, so detection depends on the actual guard strength
//     (with/without the CRC extension);
//   * data-channel bit errors -- every payload bit of a completed
//     transfer is flipped independently per traversed link (source to
//     furthest destination) with the configured data BER; detection
//     depends on NetworkConfig::with_payload_crc, including the 2^-32
//     residual that forges a valid CRC-32;
//   * targeted faults -- drop or corrupt a specific node's request
//     record in a specific slot, or the distribution packet of a
//     specific slot (deterministic unit-test scenarios);
//   * babbling node -- a node fabricates requests it has no message
//     for, soaking up grants (the classic babbling-idiot hazard).
//
// Determinism: every random draw is keyed on (slot, channel) through
// Rng::stream_seed -- no generator state across calls -- so injections
// are reproducible regardless of call order, container iteration or
// sweep thread count, and the fault stream is independent of workload
// streams seeded from the same base.  The same keying keeps the idle
// fast-forward: the injector's listener deadline replays those draws.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "net/network.hpp"
#include "phy/bit_error.hpp"
#include "sim/rng.hpp"

namespace ccredf::fault {

class FaultInjector final : public net::FaultHook,
                            private sim::ArrivalProcess {
 public:
  /// Attaches to `net` as its fault hook until destroyed; its scheduled
  /// node and link events are keys armed on `net`'s simulator, so they
  /// are disarmed with it.
  explicit FaultInjector(net::Network& net, std::uint64_t seed = 1);

  // -- token loss ---------------------------------------------------------
  /// Destroy the distribution packet that ends slot `slot`.
  void schedule_token_loss(SlotIndex slot);
  /// Destroy distribution packets independently with probability `p`.
  void set_random_token_loss(double p);

  // -- fail-silent nodes --------------------------------------------------
  //
  // Idempotence contract: fail/restore events carry NO precondition.
  // `Network::fail_node` on an already-failed node and
  // `Network::restore_node` on a healthy node are no-ops (no queue
  // clearing, no CBS backlog reset, no state change) -- so
  // double-fail, double-restore and restore-of-healthy sequences, which
  // overlapping churn schedules produce naturally, are safe in any
  // order.  Events scheduled at the SAME timestamp fire in scheduling
  // order (the event queue breaks time ties by sequence number), so the
  // LAST action scheduled for a timestamp decides the node's state
  // after it.  tests/fault/injector_idempotence_test.cpp pins the
  // matrix.
  /// Fail node `id` at simulated time `at` (no-op if already failed).
  void schedule_node_failure(NodeId id, sim::TimePoint at);
  /// Restore node `id` at simulated time `at` (no-op if healthy).
  void schedule_node_restore(NodeId id, sim::TimePoint at);

  // -- severed segments (hard link cuts) ------------------------------------
  //
  // Same idempotence contract as the fail/restore pair: `Network::cut_link`
  // on an already-severed link and `Network::splice_link` on an intact one
  // are no-ops, and same-timestamp events fire in scheduling order (FIFO
  // across kinds -- a link event scheduled before a node event at the same
  // timestamp takes effect first).
  /// Sever link `l` (node l -> node l+1) at simulated time `at`.
  void schedule_link_cut(LinkId l, sim::TimePoint at);
  /// Splice (repair) link `l` at simulated time `at`.
  void schedule_link_splice(LinkId l, sim::TimePoint at);

  // -- control-channel bit errors -----------------------------------------
  /// Uniform bit-error rate on every link of the ring.
  void set_control_ber(double ber);
  /// Per-link bit-error rates (link l = node l to its downstream).
  void set_control_ber(std::vector<double> link_ber);

  // -- data-channel bit errors --------------------------------------------
  /// Uniform bit-error rate on the data fibres of every link.
  void set_data_ber(double ber);
  /// Per-link data-fibre bit-error rates.
  void set_data_ber(std::vector<double> link_ber);

  // -- targeted faults ----------------------------------------------------
  /// Destroy node `node`'s request record in slot `slot`.
  void schedule_collection_drop(SlotIndex slot, NodeId node);
  /// Flip `bits` bits of node `node`'s request record in slot `slot`.
  void schedule_collection_corruption(SlotIndex slot, NodeId node,
                                      int bits = 1);
  /// Flip `bits` bits of the distribution packet ending slot `slot`.
  void schedule_distribution_corruption(SlotIndex slot, int bits = 1);
  /// Corrupt the payload of the transfer sourced by `node` whose final
  /// slot is `slot` (one flipped bit; deterministic test scenarios).
  void schedule_payload_corruption(SlotIndex slot, NodeId node);

  // -- babbling node ------------------------------------------------------
  /// Node `id` fabricates a spurious broadcast request with probability
  /// `p` in every slot it would otherwise stay idle.
  void set_babbling_node(NodeId id, double p);

  [[nodiscard]] std::int64_t token_losses_injected() const {
    return injected_;
  }
  /// Control-channel bits flipped so far (BER + targeted faults).
  [[nodiscard]] std::int64_t bits_flipped() const { return bits_flipped_; }
  /// Data-channel (payload) bits flipped so far.
  [[nodiscard]] std::int64_t data_bits_flipped() const {
    return data_bits_flipped_;
  }

  // net::FaultHook
  /// Fast-forward probe: replays every keyed draw the fault path would
  /// make on an all-idle slot (token-loss bernoulli, babble bernoulli,
  /// control-BER flip counts per live node, distribution-BER flip count)
  /// WITHOUT materialising frames or mutating counters, and returns the
  /// first slot in [from, limit) where any of them fires.  Because all
  /// randomness is keyed on (slot, channel), the probe and the full
  /// fault path always agree -- the engine's batched skip rests on this.
  [[nodiscard]] SlotIndex next_deadline_slot(SlotIndex from,
                                             SlotIndex limit) override;
  bool drop_distribution(SlotIndex slot) override;
  RequestFault filter_request(SlotIndex slot, NodeId hop, NodeId node,
                              core::Request& rq) override;
  DistributionFault filter_distribution(
      SlotIndex slot, core::DistributionPacket& p) override;
  DataFault filter_data(SlotIndex slot, NodeId source, NodeId hops,
                        std::int64_t payload_bits) override;

 private:
  struct TargetedFault {
    SlotIndex slot = 0;
    NodeId node = 0;
    int bits = 1;
  };
  /// A scheduled node or link event; key = action * kMaxNodes + id.
  enum class Action : std::uint32_t { kFail, kRestore, kCut, kSplice };
  void arm_event(Action a, std::uint32_t id, sim::TimePoint at);
  /// Applies the event key `key` names; nothing repeats.
  sim::TimePoint arrive(std::uint32_t key) override;

  /// Keyed generator for this slot and logical channel.
  [[nodiscard]] sim::Rng rng_at(SlotIndex slot, std::uint64_t channel) const;
  /// Fills the control-BER exposure tables from ber_.
  void fill_exposures();
  /// Pops the entry for (slot, node) from a sorted fault list, if any.
  static std::optional<TargetedFault> take(std::vector<TargetedFault>& v,
                                           SlotIndex slot, NodeId node);
  /// Inserts into a fault list sorted by (slot, node).
  static void insert_sorted(std::vector<TargetedFault>& v, TargetedFault f);
  /// Flips `bits` distinct keyed-random bits of `e`.
  void flip_bits(core::FrameCodec::Encoded& e, int bits, SlotIndex slot,
                 std::uint64_t channel);

  net::Network& net_;
  std::uint64_t seed_;

  std::vector<SlotIndex> scheduled_losses_;  // sorted
  double random_loss_p_ = 0.0;

  std::optional<phy::BitErrorModel> ber_;
  std::optional<phy::BitErrorModel> data_ber_;
  /// Control-BER exposure of node j's request record, written h links
  /// downstream of the master, at [j * N + h] (armed BER only).
  std::vector<phy::BitErrorModel::Exposure> request_exposure_;
  /// Control-BER exposure of the distribution packet at its worst-case
  /// receiver, by master (armed BER only).
  std::vector<phy::BitErrorModel::Exposure> distribution_exposure_;

  std::vector<TargetedFault> collection_drops_;        // sorted
  std::vector<TargetedFault> collection_corruptions_;  // sorted
  std::vector<TargetedFault> distribution_corruptions_;  // sorted
  std::vector<TargetedFault> payload_corruptions_;       // sorted

  NodeId babbler_ = kInvalidNode;
  double babble_p_ = 0.0;

  std::int64_t injected_ = 0;
  std::int64_t bits_flipped_ = 0;
  std::int64_t data_bits_flipped_ = 0;
};

}  // namespace ccredf::fault
