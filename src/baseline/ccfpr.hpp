// CC-FPR: the predecessor protocol with the *simple* clocking strategy
// (paper references [9], [4]) -- the baseline CCR-EDF is measured against.
//
// Differences from CCR-EDF, both pathological for hard real-time traffic
// (paper §1, §3):
//   1. Clock hand-over is round-robin: the next downstream node becomes
//      master every slot, regardless of message urgency.  When the clock
//      break lands on the path of the most urgent message, that message is
//      infeasible in the slot -- priority inversion by clock interruption.
//   2. Link booking is decided hop by hop as the collection packet passes:
//      an upstream node books its links "regardless of what [a downstream
//      node] may have to send", so tight-deadline downstream requests can
//      starve behind loose upstream ones.
#pragma once

#include "core/clocking.hpp"
#include "net/config.hpp"
#include "net/protocol.hpp"
#include "phy/ring_phy.hpp"
#include "ring/topology.hpp"

namespace ccredf::baseline {

class CcFprProtocol final : public net::MacProtocol {
 public:
  CcFprProtocol(const phy::RingPhy* phy, ring::RingTopology topo,
                bool spatial_reuse)
      : topo_(topo), handover_(phy), spatial_reuse_(spatial_reuse) {}

  [[nodiscard]] const char* name() const override { return "CC-FPR"; }

  // The booking scan depends on position, not on who requests, so it
  // ignores the requester mask.
  [[nodiscard]] net::SlotPlan plan_next_slot(
      const std::vector<core::Request>& requests, NodeId current_master,
      SlotIndex slot, NodeSet requesters) override;

  [[nodiscard]] sim::Duration gap(NodeId from, NodeId to) const override;
  [[nodiscard]] sim::Duration max_gap() const override;

 private:
  ring::RingTopology topo_;
  core::HandoverModel handover_;
  bool spatial_reuse_;
};

/// Factory for NetworkConfig::protocol_factory.
[[nodiscard]] net::ProtocolFactory ccfpr_factory();

}  // namespace ccredf::baseline
