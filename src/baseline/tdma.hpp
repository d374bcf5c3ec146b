// Static TDMA: slot k is owned by node k mod N, which is also that slot's
// clock master.  No arbitration at all -- the owner transmits its local
// head-of-queue message if it has one.  Included as the classical
// contention-free reference point: perfectly predictable, but a node's
// worst-case access delay is always N-1 slots regardless of urgency, and
// slots owned by idle nodes are wasted.
#pragma once

#include "core/clocking.hpp"
#include "net/config.hpp"
#include "net/protocol.hpp"
#include "phy/ring_phy.hpp"
#include "ring/topology.hpp"

namespace ccredf::baseline {

class TdmaProtocol final : public net::MacProtocol {
 public:
  TdmaProtocol(const phy::RingPhy* phy, ring::RingTopology topo)
      : topo_(topo), handover_(phy) {}

  [[nodiscard]] const char* name() const override { return "TDMA"; }

  // The slot owner is a pure function of the slot index, so the
  // requester mask goes unused.
  [[nodiscard]] net::SlotPlan plan_next_slot(
      const std::vector<core::Request>& requests, NodeId current_master,
      SlotIndex slot, NodeSet requesters) override;

  [[nodiscard]] sim::Duration gap(NodeId from, NodeId to) const override {
    return handover_.gap(from, to);
  }
  [[nodiscard]] sim::Duration max_gap() const override {
    return handover_.max_gap();
  }

 private:
  ring::RingTopology topo_;
  core::HandoverModel handover_;
};

[[nodiscard]] net::ProtocolFactory tdma_factory();

}  // namespace ccredf::baseline
