// What each node received, for tests that ask which deliveries reached
// whom.  A net::SlotListener that appends every entry of
// SlotRecord::deliveries to the inbox of each of its receivers, in record
// order.  Deliveries happen only in simulated slots, so it never asks for
// a slot to be simulated and the fast-forward stays on.
#pragma once

#include <vector>

#include "core/message.hpp"
#include "net/network.hpp"

namespace ccredf {

class DeliveryLog final : public net::SlotListener {
 public:
  /// Attaches to `net` until destroyed.
  explicit DeliveryLog(net::Network& net) : inboxes_(net.nodes()) {
    net.attach(*this);
  }

  /// The deliveries node `j` received, in completion order.
  [[nodiscard]] const std::vector<core::Delivery>& inbox(NodeId j) const {
    return inboxes_.at(j);
  }

  void on_slot(const net::SlotRecord& rec) override {
    for (const core::Delivery& d : rec.deliveries) {
      for (const NodeId j : d.receivers) inboxes_[j].push_back(d);
    }
  }
  [[nodiscard]] SlotIndex next_deadline_slot(SlotIndex /*from*/,
                                             SlotIndex limit) override {
    return limit;
  }

 private:
  std::vector<std::vector<core::Delivery>> inboxes_;
};

}  // namespace ccredf
