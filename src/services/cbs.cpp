#include "services/cbs.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/nodeset.hpp"

namespace ccredf::services {

CbsFlowSet::CbsFlowSet(net::Network& net, const CbsFlowSetParams& params)
    : net_(net) {
  CCREDF_EXPECT(params.flows >= 1, "CbsFlowSet: need at least one flow");
  CCREDF_EXPECT(params.first_source < net.nodes(),
                "CbsFlowSet: first source out of range");
  const NodeId n = net.nodes();
  const NodeId hops =
      std::max<NodeId>(1, std::min<NodeId>(params.dest_hops, n - 1));
  ids_.reserve(static_cast<std::size_t>(params.flows));
  for (int f = 0; f < params.flows; ++f) {
    core::CbsParams p;
    p.source = static_cast<NodeId>(
        (params.first_source + static_cast<NodeId>(f)) % n);
    p.dests =
        NodeSet::single(net.topology().downstream(p.source, hops));
    p.budget_slots = params.budget_slots;
    p.period_slots = params.period_slots;
    const auto r = net.open_cbs_server(p);
    if (r.admitted) {
      ids_.push_back(r.id);
    } else {
      ++rejected_;
    }
  }
}

MessageId CbsFlowSet::send(std::size_t flow, std::int64_t size_slots) {
  CCREDF_EXPECT(flow < ids_.size(), "CbsFlowSet: flow index out of range");
  return net_.cbs_send(ids_[flow], size_slots);
}

double CbsFlowSet::jain(const std::vector<double>& shares) {
  if (shares.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : shares) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 0.0;
  return sum * sum / (static_cast<double>(shares.size()) * sum_sq);
}

double CbsFlowSet::jain_index() const {
  std::vector<double> shares;
  shares.reserve(ids_.size());
  for (const ConnectionId id : ids_) {
    shares.push_back(
        static_cast<double>(net_.connection_stats(id).bytes));
  }
  return jain(shares);
}

void CbsFlowSet::close_all() {
  for (const ConnectionId id : ids_) net_.close_connection(id);
  ids_.clear();
}

}  // namespace ccredf::services
