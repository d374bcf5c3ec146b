// The CCR-EDF protocol: global EDF arbitration + priority-driven clock
// hand-over (the paper's contribution, §2-3).
#pragma once

#include "core/arbitration.hpp"
#include "core/clocking.hpp"
#include "net/protocol.hpp"
#include "phy/ring_phy.hpp"
#include "ring/topology.hpp"

namespace ccredf::net {

class CcrEdfProtocol final : public MacProtocol {
 public:
  CcrEdfProtocol(const phy::RingPhy* phy, ring::RingTopology topo,
                 bool spatial_reuse)
      : arbiter_(topo, spatial_reuse), handover_(phy) {}

  [[nodiscard]] const char* name() const override { return "CCR-EDF"; }

  /// Arbitration only touches the requesting nodes, so the engine's
  /// dirty-requester mask lets the arbiter skip the idle majority.
  [[nodiscard]] SlotPlan plan_next_slot(
      const std::vector<core::Request>& requests, NodeId current_master,
      SlotIndex /*slot*/, NodeSet requesters) override {
    const core::ArbitrationResult r =
        arbiter_.arbitrate(requests, current_master, requesters);
    return SlotPlan{r.next_master, r.packet.granted};
  }

  [[nodiscard]] sim::Duration gap(NodeId from, NodeId to) const override {
    return handover_.gap(from, to);
  }

  [[nodiscard]] sim::Duration max_gap() const override {
    return handover_.max_gap();
  }

  /// §3: with zero requesters arbitration returns the current master and
  /// an empty grant set -- the idle slot is a fixed point.
  [[nodiscard]] bool idle_keeps_master() const override { return true; }

  /// The hypercycle planner lays out exactly this protocol's EDF +
  /// spatial-reuse arbitration over the known periodic future.
  [[nodiscard]] bool supports_planning() const override { return true; }

  [[nodiscard]] const core::Arbiter& arbiter() const { return arbiter_; }

 private:
  core::Arbiter arbiter_;
  core::HandoverModel handover_;
};

}  // namespace ccredf::net
