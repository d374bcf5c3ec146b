// Distributed admission negotiation (paper §6, verbatim):
//   "A specific node in the system is designated to solely handle new
//    logical real-time connections ... Communication with this node is
//    handled with the best effort traffic user service."
//
// Network::open_connection() runs the Eq. 5 test instantaneously (the
// convenient API); this agent adds the paper's message exchange: the
// requester sends a best-effort request to the designated node, the test
// runs when that message ARRIVES, and a best-effort reply notifies the
// requester, which only then sees its callback fire.  Accepted
// connections start releasing after a configurable activation margin so
// no message is released before the source has learned the verdict.
//
// Graceful degradation (health monitor): when `health_window_slots` is
// non-zero the agent also watches the data channel.  Over each window it
// measures the payload-corruption ratio (CRC-rejected transfers over all
// completed transfers); past `derate_threshold` it renegotiates the
// admission bound, scaling U_max by the measured good-put fraction
// (1 - corruption ratio) -- every corrupted transfer comes back as a
// retransmission, so that fraction is exactly the capacity left for
// first transmissions.  The factor recovers to 1 when the channel heals.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/connection.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"

namespace ccredf::services {

class AdmissionAgent final : public net::SlotListener {
 public:
  using Callback = std::function<void(bool admitted, ConnectionId id)>;

  struct Params {
    /// The designated admission-handling node.
    NodeId admission_node = 0;
    /// Laxity of the request/reply best-effort messages, in slots.
    std::int64_t message_laxity_slots = 50;
    /// Extra release offset granted to accepted connections so the first
    /// release never precedes the requester's notification.
    std::int64_t activation_margin_slots = 6;
    /// Health-monitor window in slots; 0 disables the monitor.
    std::int64_t health_window_slots = 0;
    /// Corruption ratio at or above which the admission bound is derated.
    double derate_threshold = 0.02;
  };

  /// Attaches to `net` until destroyed.
  AdmissionAgent(net::Network& net, Params params);

  /// Starts a negotiation; `cb` fires when the reply reaches `requester`.
  /// A requester co-located with the admission node skips the exchange
  /// (decision + callback immediately).
  void request(NodeId requester, core::ConnectionParams params, Callback cb);

  [[nodiscard]] std::int64_t requests_sent() const { return sent_; }
  [[nodiscard]] std::int64_t replies_delivered() const { return replied_; }

  // -- health monitor -------------------------------------------------------
  /// The capacity factor currently enforced on the admission bound.
  [[nodiscard]] double capacity_factor() const { return factor_; }
  /// Corruption ratio measured over the last completed window.
  [[nodiscard]] double observed_corruption_rate() const { return last_rate_; }
  /// Times the capacity factor changed (equals the network's
  /// AdmissionController::renegotiations() while the agent is the only
  /// party setting the factor).
  [[nodiscard]] std::int64_t renegotiations() const { return renegotiations_; }
  /// Last-window corruption ratio of transfers SOURCED at `node` --
  /// localises a failing link to the upstream transmitter.
  [[nodiscard]] double link_corruption_rate(NodeId node) const;

  // net::SlotListener
  void on_slot(const net::SlotRecord& rec) override;
  /// Skipped slots deliver nothing but count towards the health window.
  void on_skip(SlotIndex /*first*/, std::int64_t k,
               NodeSet /*heard*/) override {
    if (params_.health_window_slots > 0) window_slots_ += k;
  }
  /// The slot that closes the health window (`limit` when the monitor
  /// is off): a skipped slot delivers nothing, so only the close acts.
  [[nodiscard]] SlotIndex next_deadline_slot(SlotIndex from,
                                             SlotIndex limit) override;

 private:
  struct PendingRequest {
    NodeId requester = kInvalidNode;
    core::ConnectionParams params;
    Callback cb;
  };
  struct PendingReply {
    bool admitted = false;
    ConnectionId id = kNoConnection;
    Callback cb;
  };

  void decide(PendingRequest req);
  void observe(const net::SlotRecord& rec);
  void close_window();

  net::Network& net_;
  Params params_;
  std::unordered_map<MessageId, PendingRequest> awaiting_arrival_;
  std::unordered_map<MessageId, PendingReply> awaiting_reply_;
  std::int64_t sent_ = 0;
  std::int64_t replied_ = 0;

  // Health-monitor state (untouched when health_window_slots == 0).
  std::int64_t window_slots_ = 0;
  std::int64_t window_total_ = 0;
  std::int64_t window_corrupt_ = 0;
  std::vector<std::int64_t> node_total_;
  std::vector<std::int64_t> node_corrupt_;
  std::vector<double> node_rate_;
  double last_rate_ = 0.0;
  double factor_ = 1.0;
  std::int64_t renegotiations_ = 0;
};

}  // namespace ccredf::services
