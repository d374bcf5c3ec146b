#include "workload/burst.hpp"

#include "common/error.hpp"
#include "common/nodeset.hpp"

namespace ccredf::workload {

void BurstParams::validate() const {
  CCREDF_EXPECT(mean_idle_slots > 0.0 && mean_burst_slots > 0.0,
                "BurstParams: phase lengths must be positive");
  CCREDF_EXPECT(burst_rate > 0.0, "BurstParams: burst rate must be positive");
  CCREDF_EXPECT(min_size_slots >= 1 && max_size_slots >= min_size_slots,
                "BurstParams: bad size range");
  CCREDF_EXPECT(min_laxity_slots >= 1 &&
                    max_laxity_slots >= min_laxity_slots,
                "BurstParams: bad laxity range");
}

BurstGenerator::BurstGenerator(net::Network& net, BurstParams params,
                               sim::TimePoint until)
    : net_(net), params_(params), until_(until), rng_(params.seed),
      peer_(net.nodes(), kInvalidNode) {
  params_.validate();
  CCREDF_EXPECT(net.nodes() >= 2, "BurstGenerator: need at least two nodes");
  const sim::Duration extent = net_.timing().slot_plus_max_gap();
  idle_mean_ = extent * static_cast<std::int64_t>(
                            std::max(1.0, params_.mean_idle_slots));
  burst_mean_ = extent * static_cast<std::int64_t>(
                             std::max(1.0, params_.mean_burst_slots));
  mean_gap_ = sim::Duration::picoseconds(static_cast<std::int64_t>(
      static_cast<double>(extent.ps()) / params_.burst_rate));
  for (NodeId n = 0; n < net_.nodes(); ++n) {
    net_.sim().arm(idle_end(), *this, phase_key(n));
  }
}

sim::TimePoint BurstGenerator::arrive(std::uint32_t key) {
  const NodeId node = key / 2;
  if (key == emit_key(node)) {
    emit(node);
    return sim::TimePoint::infinity();
  }
  if (peer_[node] == kInvalidNode) return enter_burst(node);
  peer_[node] = kInvalidNode;
  return idle_end();
}

sim::TimePoint BurstGenerator::idle_end() {
  const sim::TimePoint at = net_.sim().now() + rng_.exponential(idle_mean_);
  return at < until_ ? at : sim::TimePoint::infinity();
}

sim::TimePoint BurstGenerator::enter_burst(NodeId node) {
  ++bursts_;
  // Pick the burst peer once per burst (a file transfer has one sink).
  NodeId dest;
  do {
    dest = static_cast<NodeId>(rng_.uniform_u64(net_.nodes()));
  } while (dest == node);
  peer_[node] = dest;

  const sim::TimePoint burst_end =
      std::min(net_.sim().now() + rng_.exponential(burst_mean_), until_);

  // Emit at burst_rate until the phase ends, then go idle again.
  sim::TimePoint t = net_.sim().now();
  for (;;) {
    t += rng_.exponential(mean_gap_);
    if (t >= burst_end) break;
    net_.sim().arm(t, *this, emit_key(node));
  }
  return burst_end < until_ ? burst_end : sim::TimePoint::infinity();
}

void BurstGenerator::emit(NodeId node) {
  const NodeId dest = peer_[node];
  if (dest == kInvalidNode) return;
  const std::int64_t size =
      rng_.uniform_int(params_.min_size_slots, params_.max_size_slots);
  const std::int64_t laxity =
      rng_.uniform_int(params_.min_laxity_slots, params_.max_laxity_slots);
  net_.send(node, NodeSet::single(dest), params_.traffic_class, size,
            net_.timing().slot() * laxity);
  ++generated_;
}

}  // namespace ccredf::workload
