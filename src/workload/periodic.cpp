#include "workload/periodic.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/nodeset.hpp"

namespace ccredf::workload {

std::vector<double> uunifast(int n, double total, sim::Rng& rng) {
  CCREDF_EXPECT(n >= 1, "uunifast: need at least one share");
  CCREDF_EXPECT(total > 0.0, "uunifast: total must be positive");
  std::vector<double> u(static_cast<std::size_t>(n), 0.0);
  double sum = total;
  for (int i = 0; i < n - 1; ++i) {
    const double next =
        sum * std::pow(rng.uniform01(),
                       1.0 / static_cast<double>(n - 1 - i));
    u[static_cast<std::size_t>(i)] = sum - next;
    sum = next;
  }
  u[static_cast<std::size_t>(n - 1)] = sum;
  return u;
}

std::vector<core::ConnectionParams> make_periodic_set(
    const PeriodicSetParams& params) {
  CCREDF_EXPECT(params.nodes >= 2, "make_periodic_set: need >= 2 nodes");
  CCREDF_EXPECT(params.min_period_slots >= 2 &&
                    params.max_period_slots >= params.min_period_slots,
                "make_periodic_set: bad period range");
  CCREDF_EXPECT(params.multicast_fraction >= 0.0 &&
                    params.multicast_fraction <= 1.0,
                "make_periodic_set: bad multicast fraction");
  sim::Rng rng(params.seed);
  const std::vector<double> shares =
      uunifast(params.connections, params.total_utilisation, rng);

  std::vector<core::ConnectionParams> set;
  set.reserve(shares.size());
  const double log_lo = std::log(static_cast<double>(params.min_period_slots));
  const double log_hi = std::log(static_cast<double>(params.max_period_slots));
  for (const double u : shares) {
    core::ConnectionParams c;
    // Log-uniform period.
    const double lp = rng.uniform_real(log_lo, log_hi);
    c.period_slots = static_cast<std::int64_t>(std::llround(std::exp(lp)));
    c.period_slots = std::clamp(c.period_slots, params.min_period_slots,
                                params.max_period_slots);
    // Size from the utilisation share; at least one slot, never above the
    // period (a share too small to fill a slot keeps e = 1, slightly
    // raising the set's actual utilisation -- callers re-measure with
    // total_utilisation()).
    c.size_slots = std::clamp<std::int64_t>(
        static_cast<std::int64_t>(
            std::llround(u * static_cast<double>(c.period_slots))),
        1, c.period_slots);
    c.source = static_cast<NodeId>(rng.uniform_u64(params.nodes));
    const bool multicast = rng.bernoulli(params.multicast_fraction) &&
                           params.nodes > 2;
    if (multicast) {
      const auto fanout = static_cast<NodeId>(
          2 + rng.uniform_u64(params.nodes - 2));  // 2..N-1 destinations
      NodeSet dests;
      while (static_cast<NodeId>(dests.size()) < fanout) {
        const auto d = static_cast<NodeId>(rng.uniform_u64(params.nodes));
        if (d != c.source) dests.insert(d);
      }
      c.dests = dests;
    } else {
      NodeId d;
      do {
        d = static_cast<NodeId>(rng.uniform_u64(params.nodes));
      } while (d == c.source);
      c.dests = NodeSet::single(d);
    }
    // Spread first releases so the set does not arrive in phase.
    c.offset_slots =
        static_cast<std::int64_t>(rng.uniform_u64(
            static_cast<std::uint64_t>(c.period_slots)));
    c.validate();
    set.push_back(c);
  }
  return set;
}

}  // namespace ccredf::workload
