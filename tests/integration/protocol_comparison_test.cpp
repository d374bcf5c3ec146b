// Cross-protocol integration: identical workloads on CCR-EDF, CC-FPR and
// TDMA must all deliver everything at feasible load, but only CCR-EDF
// keeps the real-time guarantee -- the paper's comparative claims as
// executable assertions (E6's shape as a regression test).
#include <gtest/gtest.h>

#include "baseline/ccfpr.hpp"
#include "baseline/tdma.hpp"
#include "net/network.hpp"
#include "support/delivery_log.hpp"
#include "workload/periodic.hpp"

namespace ccredf {
namespace {

using core::TrafficClass;
using net::Network;
using net::NetworkConfig;

struct Outcome {
  std::int64_t delivered = 0;
  std::int64_t user_misses = 0;
  std::int64_t inversions = 0;
};

Outcome run(int protocol, std::uint64_t seed, double load_frac) {
  NetworkConfig cfg;
  cfg.nodes = 8;
  if (protocol == 1) cfg.protocol_factory = baseline::ccfpr_factory();
  if (protocol == 2) cfg.protocol_factory = baseline::tdma_factory();
  Network n(cfg);
  workload::PeriodicSetParams wp;
  wp.nodes = 8;
  wp.connections = 14;
  wp.total_utilisation = load_frac * n.timing().u_max();
  wp.min_period_slots = 10;
  wp.max_period_slots = 100;
  wp.seed = seed;
  for (const auto& c : workload::make_periodic_set(wp)) {
    (void)n.open_connection(c);
  }
  n.run_slots(6000);
  const auto& rt = n.stats().cls(TrafficClass::kRealTime);
  return Outcome{rt.delivered, rt.user_misses,
                 n.stats().priority_inversions};
}

class ProtocolComparison
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(ProtocolComparison, CcrEdfAloneKeepsTheGuarantee) {
  const auto [seed, load] = GetParam();
  const Outcome edf = run(0, seed, load);
  const Outcome fpr = run(1, seed, load);
  const Outcome tdma = run(2, seed, load);

  // All protocols make progress on the same workload.
  EXPECT_GT(edf.delivered, 0);
  EXPECT_GT(fpr.delivered, 0);
  EXPECT_GT(tdma.delivered, 0);

  // The paper's claims, as assertions.
  EXPECT_EQ(edf.user_misses, 0);
  EXPECT_EQ(edf.inversions, 0);
  EXPECT_GT(fpr.inversions, 0);
  // On tight-deadline sets CC-FPR and TDMA miss; CCR-EDF never more.
  EXPECT_LE(edf.user_misses, fpr.user_misses);
  EXPECT_LE(edf.user_misses, tdma.user_misses);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProtocolComparison,
    ::testing::Combine(::testing::Values<std::uint64_t>(3, 5, 9),
                       ::testing::Values(0.4, 0.7)));

TEST(ProtocolComparison, AllProtocolsDrainFeasibleQueues) {
  for (int proto = 0; proto < 3; ++proto) {
    NetworkConfig cfg;
    cfg.nodes = 6;
    if (proto == 1) cfg.protocol_factory = baseline::ccfpr_factory();
    if (proto == 2) cfg.protocol_factory = baseline::tdma_factory();
    Network n(cfg);
    DeliveryLog log(n);
    for (NodeId s = 0; s < 6; ++s) {
      n.send_non_realtime(s, NodeSet::single((s + 2) % 6), 2);
    }
    n.run_slots(100);
    std::size_t delivered = 0;
    for (NodeId i = 0; i < 6; ++i) delivered += log.inbox(i).size();
    EXPECT_EQ(delivered, 6u) << "protocol " << proto;
  }
}

}  // namespace
}  // namespace ccredf
