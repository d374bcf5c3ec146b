#include "services/admission_agent.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ccredf::services {

AdmissionAgent::AdmissionAgent(net::Network& net, Params params)
    : net_(net), params_(params) {
  CCREDF_EXPECT(params_.admission_node < net.nodes(),
                "AdmissionAgent: admission node out of range");
  CCREDF_EXPECT(params_.message_laxity_slots >= 1,
                "AdmissionAgent: message laxity must be >= 1 slot");
  CCREDF_EXPECT(params_.activation_margin_slots >= 0,
                "AdmissionAgent: negative activation margin");
  CCREDF_EXPECT(params_.health_window_slots >= 0,
                "AdmissionAgent: negative health window");
  CCREDF_EXPECT(params_.derate_threshold > 0.0 &&
                    params_.derate_threshold <= 1.0,
                "AdmissionAgent: derate threshold out of (0,1]");
  if (params_.health_window_slots > 0) {
    node_total_.assign(net_.nodes(), 0);
    node_corrupt_.assign(net_.nodes(), 0);
    node_rate_.assign(net_.nodes(), 0.0);
  }
  net_.attach(*this);
}

void AdmissionAgent::decide(PendingRequest req) {
  // The test runs at the admission node, now.  Accepted connections get
  // the activation margin so the first release follows the notification.
  core::ConnectionParams p = req.params;
  p.offset_slots += params_.activation_margin_slots;
  const auto result = net_.open_connection(p);

  if (req.requester == params_.admission_node) {
    ++replied_;
    if (req.cb) req.cb(result.admitted, result.id);
    return;
  }
  // Reply rides best effort back to the requester (paper §6).
  const MessageId reply = net_.send_best_effort(
      params_.admission_node, NodeSet::single(req.requester), 1,
      net_.timing().slot() * params_.message_laxity_slots);
  awaiting_reply_.emplace(
      reply, PendingReply{result.admitted, result.id, std::move(req.cb)});
}

void AdmissionAgent::request(NodeId requester,
                             core::ConnectionParams params, Callback cb) {
  CCREDF_EXPECT(requester < net_.nodes(), "AdmissionAgent: bad requester");
  ++sent_;
  PendingRequest req{requester, std::move(params), std::move(cb)};
  if (requester == params_.admission_node) {
    decide(std::move(req));  // co-located: no message exchange
    return;
  }
  const MessageId msg = net_.send_best_effort(
      requester, NodeSet::single(params_.admission_node), 1,
      net_.timing().slot() * params_.message_laxity_slots);
  awaiting_arrival_.emplace(msg, std::move(req));
}

void AdmissionAgent::on_slot(const net::SlotRecord& rec) {
  for (const core::Delivery& d : rec.deliveries) {
    if (const auto it = awaiting_arrival_.find(d.id);
        it != awaiting_arrival_.end()) {
      PendingRequest req = std::move(it->second);
      awaiting_arrival_.erase(it);
      decide(std::move(req));
      continue;
    }
    if (const auto it = awaiting_reply_.find(d.id);
        it != awaiting_reply_.end()) {
      PendingReply reply = std::move(it->second);
      awaiting_reply_.erase(it);
      ++replied_;
      if (reply.cb) reply.cb(reply.admitted, reply.id);
    }
  }
  if (params_.health_window_slots > 0) observe(rec);
}

SlotIndex AdmissionAgent::next_deadline_slot(SlotIndex from,
                                             SlotIndex limit) {
  if (params_.health_window_slots == 0) return limit;
  return std::min(limit,
                  from + params_.health_window_slots - 1 - window_slots_);
}

void AdmissionAgent::observe(const net::SlotRecord& rec) {
  window_total_ += static_cast<std::int64_t>(rec.deliveries.size()) +
                   static_cast<std::int64_t>(rec.corrupt_deliveries.size());
  window_corrupt_ +=
      static_cast<std::int64_t>(rec.corrupt_deliveries.size());
  for (const core::Delivery& d : rec.deliveries) ++node_total_[d.source];
  for (const core::Delivery& d : rec.corrupt_deliveries) {
    ++node_total_[d.source];
    ++node_corrupt_[d.source];
  }
  if (++window_slots_ < params_.health_window_slots) return;
  close_window();
}

void AdmissionAgent::close_window() {
  last_rate_ = window_total_ == 0
                   ? 0.0
                   : static_cast<double>(window_corrupt_) /
                         static_cast<double>(window_total_);
  for (NodeId i = 0; i < net_.nodes(); ++i) {
    node_rate_[i] = node_total_[i] == 0
                        ? 0.0
                        : static_cast<double>(node_corrupt_[i]) /
                              static_cast<double>(node_total_[i]);
    node_total_[i] = 0;
    node_corrupt_[i] = 0;
  }
  window_slots_ = 0;
  window_total_ = 0;
  window_corrupt_ = 0;

  // Every corrupted transfer returns as a retransmission, so the
  // fraction of capacity left for first transmissions is (1 - rate):
  // derate the admission bound to exactly that.  Below the threshold
  // the channel is considered healthy and full capacity is restored.
  const double target =
      last_rate_ >= params_.derate_threshold ? 1.0 - last_rate_ : 1.0;
  if (target == net_.admission().capacity_factor()) return;
  net_.admission().set_capacity_factor(target);
}

double AdmissionAgent::link_corruption_rate(NodeId node) const {
  CCREDF_EXPECT(node < net_.nodes(), "AdmissionAgent: node out of range");
  return node_rate_.empty() ? 0.0 : node_rate_[node];
}

}  // namespace ccredf::services
