#include "services/reliable.hpp"

#include <utility>

#include "common/error.hpp"

namespace ccredf::services {

ReliableChannel::ReliableChannel(net::Network& net, Params params)
    : net_(net), params_(params) {
  CCREDF_EXPECT(params_.ack_margin_slots >= 0,
                "ReliableChannel: ack margin cannot be negative");
  net_.attach(*this);
}

bool ReliableChannel::budget_covers_attempt(const Transfer& t) const {
  if (!params_.laxity_budgeted || t.deadline == sim::TimePoint::infinity()) {
    return true;
  }
  // One more attempt costs size_slots of data plus the ack/NACK round,
  // each a worst-case slot extent; anything less and the repeat cannot
  // land before the deadline -- it would only steal slots from messages
  // that can still make it.
  const sim::Duration budget =
      net_.timing().slot_plus_max_gap() *
      (t.size_slots + params_.ack_margin_slots);
  return t.deadline - net_.sim().now() >= budget;
}

MessageId ReliableChannel::send(NodeId src, NodeId dst,
                                std::int64_t size_slots,
                                sim::Duration relative_deadline,
                                CompletionCallback cb) {
  CCREDF_EXPECT(src != dst, "ReliableChannel: src == dst");
  Transfer t;
  t.src = src;
  t.dst = dst;
  t.size_slots = size_slots;
  t.relative_deadline = relative_deadline;
  t.deadline = relative_deadline >= sim::Duration::infinity()
                   ? sim::TimePoint::infinity()
                   : net_.sim().now() + relative_deadline;
  t.cb = std::move(cb);
  ++started_;
  t.current_attempt = net_.send_best_effort(src, NodeSet::single(dst),
                                            size_slots, relative_deadline);
  t.transfer_id = t.current_attempt;
  t.attempts = 1;
  by_attempt_.emplace(t.current_attempt, t.transfer_id);
  const MessageId id = t.transfer_id;
  live_.emplace(id, std::move(t));
  return id;
}

void ReliableChannel::attempt(Transfer& t) {
  // Re-enter EDF at the TRUE remaining laxity: the repeat is more
  // urgent than the original release was, and the arbiter should see
  // that (fixed-retry mode keeps the original relative deadline).
  sim::Duration rel = t.relative_deadline;
  if (params_.laxity_budgeted && t.deadline != sim::TimePoint::infinity()) {
    rel = t.deadline - net_.sim().now();
  }
  t.current_attempt =
      net_.send_best_effort(t.src, NodeSet::single(t.dst), t.size_slots, rel);
  ++t.attempts;
  ++retx_;
  by_attempt_.emplace(t.current_attempt, t.transfer_id);
}

void ReliableChannel::finish(Transfer& t, bool delivered, bool abandoned,
                             sim::TimePoint completed) {
  TransferResult r{t.transfer_id, delivered,  abandoned,
                   t.attempts,    completed, t.deadline};
  if (delivered) {
    ++delivered_;
  } else {
    ++failed_;
    if (abandoned) ++abandoned_;
  }
  auto cb = std::move(t.cb);
  live_.erase(t.transfer_id);
  if (cb) cb(r);
}

ReliableChannel::Transfer* ReliableChannel::claim_attempt(MessageId id) {
  const auto ait = by_attempt_.find(id);
  if (ait == by_attempt_.end()) return nullptr;
  const MessageId transfer_id = ait->second;
  by_attempt_.erase(ait);
  const auto it = live_.find(transfer_id);
  if (it == live_.end()) return nullptr;
  Transfer& t = it->second;
  if (id != t.current_attempt) return nullptr;  // stale attempt
  return &t;
}

void ReliableChannel::on_slot(const net::SlotRecord& rec) {
  for (const core::Delivery& d : rec.deliveries) {
    Transfer* tp = claim_attempt(d.id);
    if (tp == nullptr) continue;
    // Ack rides the next distribution packet; the sender knows at the
    // following slot end, approximately one slot extent after delivery.
    finish(*tp, true, false,
           d.completed + net_.timing().slot_plus_max_gap());
  }

  // The receivers' payload CRC rejected the transfer and the source is
  // NACKed on the NEXT distribution packet -- the sender decides one
  // slot extent after the corrupted delivery would have landed.
  for (const core::Delivery& d : rec.corrupt_deliveries) {
    Transfer* tp = claim_attempt(d.id);
    if (tp == nullptr) continue;
    ++nacks_;
    const MessageId transfer_id = tp->transfer_id;
    net_.sim().schedule_in(net_.timing().slot_plus_max_gap(),
                           [this, transfer_id] { on_resolve(transfer_id); });
  }
}

void ReliableChannel::on_resolve(MessageId transfer_id) {
  const auto it = live_.find(transfer_id);
  if (it == live_.end()) return;
  Transfer& t = it->second;
  if (params_.max_attempts > 0 && t.attempts >= params_.max_attempts) {
    finish(t, false, false, net_.sim().now());
    return;
  }
  if (!budget_covers_attempt(t)) {
    // Hopeless: the remaining laxity cannot cover one more attempt.
    // Abandon now rather than burn slots other messages still need.
    finish(t, false, true, net_.sim().now());
    return;
  }
  attempt(t);
}

}  // namespace ccredf::services
