// Long-horizon soak: 50k slots of mixed periodic RT + Poisson BE and NRT
// traffic with sporadic token losses and one node failing and returning.
// Every protocol invariant must hold across the whole run, and the
// accounting must stay self-consistent.
#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "workload/periodic.hpp"
#include "workload/poisson.hpp"

namespace ccredf {
namespace {

using core::TrafficClass;
using net::Network;
using net::NetworkConfig;
using net::SlotRecord;

TEST(Soak, FiftyThousandSlotsOfEverything) {
  NetworkConfig cfg;
  cfg.nodes = 16;
  Network n(cfg);
  fault::FaultInjector inj(n, /*seed=*/99);
  inj.set_random_token_loss(0.0005);
  inj.schedule_node_failure(
      11, sim::TimePoint::origin() + n.timing().slot() * 20'000);
  inj.schedule_node_restore(
      11, sim::TimePoint::origin() + n.timing().slot() * 30'000);

  // Invariant observers.
  std::int64_t chain_violations = 0;
  std::int64_t grant_overlaps = 0;
  std::optional<SlotRecord> prev;
  n.add_slot_observer([&](const SlotRecord& rec) {
    if (prev) {
      if (rec.start != prev->end + prev->gap_after) ++chain_violations;
      if (rec.master != prev->next_master) ++chain_violations;
      LinkSet seen;
      for (const NodeId g : rec.granted) {
        if (prev->requests[g].links.intersects(seen)) ++grant_overlaps;
        seen |= prev->requests[g].links;
      }
    }
    prev = rec;
  });

  // Load: periodic RT (admitted), Poisson BE, NRT background.
  workload::PeriodicSetParams wp;
  wp.nodes = 16;
  wp.connections = 20;
  wp.total_utilisation = 0.4 * n.admission().u_max();
  wp.min_period_slots = 50;
  wp.max_period_slots = 1000;
  wp.seed = 1;
  int admitted = 0;
  for (const auto& c : workload::make_periodic_set(wp)) {
    if (n.open_connection(c).admitted) ++admitted;
  }
  ASSERT_GT(admitted, 10);

  const auto horizon = sim::TimePoint::origin() + n.timing().slot() * 48'000;
  workload::PoissonParams pp;
  pp.rate_per_node = 0.05;
  pp.seed = 2;
  workload::PoissonGenerator poisson(n, pp, horizon);
  workload::PoissonParams np;
  np.rate_per_node = 0.01;
  np.traffic_class = TrafficClass::kNonRealTime;
  np.seed = 4;
  workload::PoissonGenerator nrt(n, np, horizon);

  n.run_slots(50'000);

  EXPECT_EQ(chain_violations, 0);
  EXPECT_EQ(grant_overlaps, 0);
  EXPECT_EQ(n.stats().priority_inversions, 0);
  EXPECT_EQ(n.recoveries(), inj.token_losses_injected());

  const auto& rt = n.stats().cls(TrafficClass::kRealTime);
  const auto& be = n.stats().cls(TrafficClass::kBestEffort);
  const auto& nr = n.stats().cls(TrafficClass::kNonRealTime);
  EXPECT_GT(rt.delivered, 1'000);
  EXPECT_GT(be.delivered, 1'000);
  // Non-real-time traffic is starved almost completely under sustained
  // RT+BE load -- priority level 1 loses every arbitration with
  // contention, which is exactly the class semantics of Table 1.
  EXPECT_GE(nr.delivered, 1);
  EXPECT_LT(nr.delivered, be.delivered / 10);
  // With sporadic token losses the guarantee may dent, but only barely
  // at this loss rate (one stall per ~2000 slots, deadlines >= 50 slots).
  EXPECT_LT(rt.user_miss_ratio(), 0.001);

  // Accounting self-consistency.
  std::int64_t released = 0, conn_delivered = 0;
  for (const auto& [id, cs] : n.stats().per_connection) {
    released += cs.released;
    conn_delivered += cs.delivered;
  }
  EXPECT_EQ(conn_delivered, rt.delivered);
  EXPECT_GE(released, conn_delivered);
  // Releases not yet delivered are still queued (or died with node 11).
  EXPECT_LE(released - conn_delivered,
            released / 10);
}

}  // namespace
}  // namespace ccredf
