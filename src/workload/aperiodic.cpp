#include "workload/aperiodic.hpp"

#include "common/error.hpp"

namespace ccredf::workload {

void AperiodicParams::validate() const {
  CCREDF_EXPECT(rate_per_flow > 0.0,
                "AperiodicGenerator: rate must be positive");
  CCREDF_EXPECT(min_size_slots >= 1 && max_size_slots >= min_size_slots,
                "AperiodicGenerator: bad size range");
  CCREDF_EXPECT((mean_idle_slots == 0.0) == (mean_burst_slots == 0.0),
                "AperiodicGenerator: burst modulation needs both dwells");
  CCREDF_EXPECT(mean_idle_slots >= 0.0 && mean_burst_slots >= 0.0,
                "AperiodicGenerator: negative dwell");
}

AperiodicGenerator::AperiodicGenerator(net::Network& net,
                                       std::vector<ConnectionId> servers,
                                       AperiodicParams params,
                                       sim::TimePoint until)
    : net_(net), params_(params), until_(until) {
  params_.validate();
  const sim::Duration extent = net_.timing().slot_plus_max_gap();
  mean_gap_ = sim::Duration::picoseconds(static_cast<std::int64_t>(
      static_cast<double>(extent.ps()) / params_.rate_per_flow));
  burst_mean_ = sim::Duration::picoseconds(static_cast<std::int64_t>(
      params_.mean_burst_slots * static_cast<double>(extent.ps())));
  idle_mean_ = sim::Duration::picoseconds(static_cast<std::int64_t>(
      params_.mean_idle_slots * static_cast<double>(extent.ps())));
  flows_.reserve(servers.size());
  for (std::size_t f = 0; f < servers.size(); ++f) {
    Flow flow{servers[f], sim::Rng::stream(params_.seed, f, 0), true,
              sim::TimePoint::origin()};
    if (params_.mean_burst_slots > 0.0) {
      // Start each flow in a burst of a fresh random dwell.
      flow.phase_end = net_.sim().now() + flow.rng.exponential(burst_mean_);
    }
    flows_.push_back(flow);
    net_.sim().arm(next_arrival(flows_.back()), *this,
                   static_cast<std::uint32_t>(f));
  }
}

sim::TimePoint AperiodicGenerator::arrive(std::uint32_t f) {
  Flow& flow = flows_[f];
  emit(flow);
  return next_arrival(flow);
}

sim::TimePoint AperiodicGenerator::next_arrival(Flow& flow) {
  sim::TimePoint at = net_.sim().now() + flow.rng.exponential(mean_gap_);
  if (params_.mean_burst_slots > 0.0) {
    // Walk the on/off phase machine forward until `at` lands inside a
    // burst; time spent in idle phases just pushes the arrival out.
    while (true) {
      if (flow.bursting) {
        if (at < flow.phase_end) break;  // arrival lands in this burst
        // Burst ended first: pause the arrival clock over the idle
        // dwell and resume in the next burst.
        const sim::Duration idle = flow.rng.exponential(idle_mean_);
        at = at + idle;
        flow.bursting = false;
        flow.phase_end = flow.phase_end + idle;
      } else {
        flow.bursting = true;
        flow.phase_end = flow.phase_end + flow.rng.exponential(burst_mean_);
      }
    }
  }
  return at < until_ ? at : sim::TimePoint::infinity();
}

void AperiodicGenerator::emit(Flow& flow) {
  // The size draw happens unconditionally so the per-flow RNG sequence
  // does not depend on whether the server is currently quarantined.
  const std::int64_t size =
      flow.rng.uniform_int(params_.min_size_slots, params_.max_size_slots);
  // Server closed (resilience quarantine): drop the job.
  if (net_.cbs_server(flow.server) == nullptr) return;
  net_.cbs_send(flow.server, size);
  ++generated_;
}

}  // namespace ccredf::workload
