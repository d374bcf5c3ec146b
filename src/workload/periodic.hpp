// Synthetic periodic connection sets.
//
// Classic real-time evaluation methodology: a target total utilisation is
// split across n connections with UUniFast (Bini & Buttazzo), periods are
// drawn log-uniformly so the set spans decades of time scales, and sizes
// follow from e_i = u_i * P_i.  Sources and destinations are uniform over
// distinct nodes, with an optional multicast fraction.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"
#include "core/connection.hpp"
#include "sim/rng.hpp"

namespace ccredf::workload {

struct PeriodicSetParams {
  double total_utilisation = 0.5;
  int connections = 8;
  std::int64_t min_period_slots = 20;
  std::int64_t max_period_slots = 2000;
  NodeId nodes = 8;
  /// Fraction of connections with 2..nodes-1 destinations.
  double multicast_fraction = 0.0;
  std::uint64_t seed = 1;
};

/// Generates a connection set whose total utilisation approximates
/// `total_utilisation` (exact up to integer rounding of sizes).
[[nodiscard]] std::vector<core::ConnectionParams> make_periodic_set(
    const PeriodicSetParams& params);

/// UUniFast: unbiased split of `total` utilisation into `n` shares.
[[nodiscard]] std::vector<double> uunifast(int n, double total,
                                           sim::Rng& rng);

}  // namespace ccredf::workload
