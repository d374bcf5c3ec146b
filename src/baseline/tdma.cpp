#include "baseline/tdma.hpp"

#include "common/error.hpp"
#include "net/network.hpp"

namespace ccredf::baseline {

net::SlotPlan TdmaProtocol::plan_next_slot(
    const std::vector<core::Request>& requests, NodeId /*current_master*/,
    SlotIndex slot, NodeSet /*requesters*/) {
  CCREDF_EXPECT(requests.size() == topo_.nodes(),
                "TdmaProtocol: need one request per node");
  net::SlotPlan plan;
  const NodeId owner =
      static_cast<NodeId>((slot + 1) % static_cast<SlotIndex>(topo_.nodes()));
  // The slot owner clocks its own slot: its transmission (<= N-1 hops
  // starting at itself) can never cross its own clock break.
  plan.next_master = owner;
  if (requests[owner].wants_slot()) plan.granted.insert(owner);
  return plan;
}

net::ProtocolFactory tdma_factory() {
  return [](const phy::RingPhy& phy, const ring::RingTopology& topo,
            const net::NetworkConfig& /*cfg*/) {
    return std::make_unique<TdmaProtocol>(&phy, topo);
  };
}

}  // namespace ccredf::baseline
