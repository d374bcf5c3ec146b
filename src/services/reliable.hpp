// Reliable transmission service (paper §1: "flow control and packet
// acknowledgement ... provided as an intrinsic part of the network" [4]).
//
// The destination acknowledges a received message in the distribution
// packet's ack field; a payload rejected by the receivers' CRC-32
// (NetworkConfig::with_payload_crc) is NACKed the same way, and the
// sender retransmits.  Retransmission is *laxity-budgeted*: a repeat is
// sent only while the remaining time to the transfer's deadline still
// covers the worst-case extent of one more attempt (size_slots plus an
// ack margin, each a full slot-plus-max-gap).  Each retransmission
// re-enters EDF at its TRUE remaining laxity -- tighter than the
// original -- so repair work competes at the urgency it actually has.
// A transfer whose budget no longer covers an attempt is abandoned
// early, releasing its slots to messages that can still make it.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"

namespace ccredf::services {

class ReliableChannel final : public net::SlotListener {
 public:
  struct Params {
    /// Give up after this many attempts (0 = never).
    int max_attempts = 16;
    /// Budget retransmissions against the transfer deadline: retransmit
    /// only while remaining laxity covers one more worst-case attempt,
    /// and re-enter EDF at the true (tighter) remaining laxity.  When
    /// off, retries use the original relative deadline until the
    /// attempt cap -- the fixed-retry baseline.
    bool laxity_budgeted = true;
    /// Worst-case slots between a transfer's last data slot and the
    /// sender learning its fate (the ack/NACK rides the next
    /// distribution packet); part of the per-attempt budget.
    std::int64_t ack_margin_slots = 1;
  };

  struct TransferResult {
    MessageId id = 0;
    bool delivered = false;
    /// True when the laxity budget ran out before the attempt cap: the
    /// transfer was hopeless and was abandoned early.
    bool abandoned = false;
    int attempts = 0;
    sim::TimePoint completed;
    /// The transfer's absolute deadline (infinity if none).
    sim::TimePoint deadline;
  };
  using CompletionCallback = std::function<void(const TransferResult&)>;

  /// Attaches to `net` until destroyed.
  ReliableChannel(net::Network& net, Params params);

  /// Sends `size_slots` of data from `src` to `dst` reliably as
  /// best-effort traffic; `cb` fires on final success or failure.
  /// Returns the transfer id (the first attempt's message id).
  MessageId send(NodeId src, NodeId dst, std::int64_t size_slots,
                 sim::Duration relative_deadline, CompletionCallback cb);

  [[nodiscard]] std::int64_t transfers_started() const { return started_; }
  [[nodiscard]] std::int64_t transfers_delivered() const {
    return delivered_;
  }
  [[nodiscard]] std::int64_t transfers_failed() const { return failed_; }
  /// ... of which were abandoned by the laxity budget.
  [[nodiscard]] std::int64_t transfers_abandoned() const {
    return abandoned_;
  }
  [[nodiscard]] std::int64_t retransmissions() const { return retx_; }
  /// Payload-CRC NACKs observed for this channel's transfers.
  [[nodiscard]] std::int64_t nacks_received() const { return nacks_; }

  // net::SlotListener
  void on_slot(const net::SlotRecord& rec) override;
  /// Always `limit`: a skipped slot delivers nothing.
  [[nodiscard]] SlotIndex next_deadline_slot(SlotIndex /*from*/,
                                             SlotIndex limit) override {
    return limit;
  }

 private:
  struct Transfer {
    MessageId transfer_id = 0;
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::int64_t size_slots = 1;
    sim::Duration relative_deadline = sim::Duration::zero();
    /// Absolute deadline (send time + relative; infinity if none).
    sim::TimePoint deadline;
    int attempts = 0;
    MessageId current_attempt = 0;
    CompletionCallback cb;
  };

  void attempt(Transfer& t);
  /// Fires when the sender learns an attempt failed (NACK arrival):
  /// retransmit, or abandon if the budget ran out.
  void on_resolve(MessageId transfer_id);
  void finish(Transfer& t, bool delivered, bool abandoned,
              sim::TimePoint completed);
  /// Claims the live transfer owning in-flight attempt `id` (nullptr if
  /// the attempt is stale or foreign).
  Transfer* claim_attempt(MessageId id);
  /// True while the remaining laxity covers one more worst-case attempt.
  [[nodiscard]] bool budget_covers_attempt(const Transfer& t) const;

  net::Network& net_;
  Params params_;
  /// Keyed by transfer id; `by_attempt_` maps in-flight message ids back.
  std::unordered_map<MessageId, Transfer> live_;
  std::unordered_map<MessageId, MessageId> by_attempt_;
  std::int64_t started_ = 0;
  std::int64_t delivered_ = 0;
  std::int64_t failed_ = 0;
  std::int64_t abandoned_ = 0;
  std::int64_t retx_ = 0;
  std::int64_t nacks_ = 0;
};

}  // namespace ccredf::services
