#include "baseline/ccfpr.hpp"

#include "common/error.hpp"
#include "net/network.hpp"

namespace ccredf::baseline {

net::SlotPlan CcFprProtocol::plan_next_slot(
    const std::vector<core::Request>& requests, NodeId current_master,
    SlotIndex /*slot*/, NodeSet /*requesters*/) {
  CCREDF_EXPECT(requests.size() == topo_.nodes(),
                "CcFprProtocol: need one request per node");
  net::SlotPlan plan;
  // Simple clocking strategy: mastership rotates downstream every slot.
  plan.next_master = topo_.downstream(current_master);
  const LinkId break_link = topo_.break_link(plan.next_master);

  // Bookings are decided in the order the collection packet visits the
  // nodes: the master's downstream neighbour first, the master itself
  // last (the packet returns to it).  First-come booking, no global sort.
  LinkSet taken;
  for (NodeId h = 1; h <= topo_.nodes(); ++h) {
    const NodeId node = topo_.downstream(current_master, h % topo_.nodes());
    const core::Request& rq = requests[node];
    if (!rq.wants_slot()) continue;
    if (rq.links.intersects(taken)) continue;
    if (rq.links.contains(break_link)) continue;  // clock interruption
    taken |= rq.links;
    plan.granted.insert(node);
    if (!spatial_reuse_) break;
  }
  return plan;
}

sim::Duration CcFprProtocol::gap(NodeId from, NodeId /*to*/) const {
  // Hand-over is always one hop downstream, so the gap depends on `from`
  // alone (the advantage the paper concedes to the simple strategy, §1).
  // The engine tabulates every (from, to) pair at construction, so this
  // answers for any `to`.
  return handover_.round_robin_gap(from);
}

sim::Duration CcFprProtocol::max_gap() const {
  sim::Duration g = sim::Duration::zero();
  for (NodeId n = 0; n < topo_.nodes(); ++n) {
    g = std::max(g, handover_.round_robin_gap(n));
  }
  return g;
}

net::ProtocolFactory ccfpr_factory() {
  return [](const phy::RingPhy& phy, const ring::RingTopology& topo,
            const net::NetworkConfig& cfg) {
    return std::make_unique<CcFprProtocol>(&phy, topo, cfg.spatial_reuse);
  };
}

}  // namespace ccredf::baseline
