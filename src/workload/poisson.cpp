#include "workload/poisson.hpp"

#include "common/error.hpp"
#include "common/nodeset.hpp"

namespace ccredf::workload {

PoissonGenerator::PoissonGenerator(net::Network& net, PoissonParams params,
                                   sim::TimePoint until)
    : net_(net), params_(params), until_(until), rng_(params.seed) {
  CCREDF_EXPECT(params_.rate_per_node > 0.0,
                "PoissonGenerator: rate must be positive");
  CCREDF_EXPECT(params_.min_size_slots >= 1 &&
                    params_.max_size_slots >= params_.min_size_slots,
                "PoissonGenerator: bad size range");
  CCREDF_EXPECT(params_.min_laxity_slots >= 1 &&
                    params_.max_laxity_slots >= params_.min_laxity_slots,
                "PoissonGenerator: bad laxity range");
  mean_gap_ = sim::Duration::picoseconds(static_cast<std::int64_t>(
      static_cast<double>(net_.timing().slot_plus_max_gap().ps()) /
      params_.rate_per_node));
  for (NodeId n = 0; n < net_.nodes(); ++n) {
    net_.sim().arm(next_arrival(), *this, n);
  }
}

sim::TimePoint PoissonGenerator::arrive(std::uint32_t node) {
  emit(node);
  return next_arrival();
}

sim::TimePoint PoissonGenerator::next_arrival() {
  const sim::TimePoint at = net_.sim().now() + rng_.exponential(mean_gap_);
  return at < until_ ? at : sim::TimePoint::infinity();
}

void PoissonGenerator::emit(NodeId node) {
  const NodeId n = net_.nodes();
  NodeId dest;
  if (params_.locality_hops >= 1) {
    const NodeId span = std::min<NodeId>(params_.locality_hops, n - 1);
    dest = net_.topology().downstream(
        node, static_cast<NodeId>(1 + rng_.uniform_u64(span)));
  } else {
    do {
      dest = static_cast<NodeId>(rng_.uniform_u64(n));
    } while (dest == node);
  }
  const std::int64_t size =
      rng_.uniform_int(params_.min_size_slots, params_.max_size_slots);
  if (params_.traffic_class == core::TrafficClass::kNonRealTime) {
    net_.send_non_realtime(node, NodeSet::single(dest), size);
  } else {
    const std::int64_t laxity =
        rng_.uniform_int(params_.min_laxity_slots, params_.max_laxity_slots);
    net_.send(node, NodeSet::single(dest), params_.traffic_class, size,
              net_.timing().slot() * laxity);
  }
  ++generated_;
}

}  // namespace ccredf::workload
