// Poisson best-effort / non-real-time traffic generator.
//
// Each node generates messages with exponential inter-arrival times;
// destinations are uniform (optionally biased towards nearby downstream
// nodes, which raises spatial-reuse opportunity -- experiment E9), sizes
// and laxities uniform over configured ranges.  Each node is one key of
// the generator's arrival process (sim::ArrivalProcess), armed on the
// network's event queue.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "core/priority.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace ccredf::workload {

struct PoissonParams {
  /// Mean messages per slot-extent per node.
  double rate_per_node = 0.05;
  core::TrafficClass traffic_class = core::TrafficClass::kBestEffort;
  std::int64_t min_size_slots = 1;
  std::int64_t max_size_slots = 4;
  /// Relative deadline (laxity at release), uniform in this slot range;
  /// ignored for non-real-time traffic.
  std::int64_t min_laxity_slots = 10;
  std::int64_t max_laxity_slots = 200;
  /// 0 => destinations uniform over all other nodes; k >= 1 restricts the
  /// destination to at most k hops downstream (traffic locality).
  NodeId locality_hops = 0;
  std::uint64_t seed = 7;
};

class PoissonGenerator final : public sim::ArrivalProcess {
 public:
  /// Starts generating immediately; stops at `until`.  Either the
  /// generator or `net` may be destroyed first.
  PoissonGenerator(net::Network& net, PoissonParams params,
                   sim::TimePoint until);

  [[nodiscard]] std::int64_t generated() const { return generated_; }

 private:
  /// sim::ArrivalProcess; the key is the node.
  sim::TimePoint arrive(std::uint32_t node) override;
  /// The next arrival instant after now, or infinity from `until` on.
  sim::TimePoint next_arrival();
  void emit(NodeId node);

  net::Network& net_;
  PoissonParams params_;
  sim::TimePoint until_;
  sim::Duration mean_gap_;
  sim::Rng rng_;
  std::int64_t generated_ = 0;
};

}  // namespace ccredf::workload
