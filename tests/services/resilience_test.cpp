// services::ResilienceMonitor: failure detection from collection-phase
// heartbeat evidence, quarantine/reclamation exactness, staged
// re-admission pacing and back-off, false-positive self-heal, and the
// two churn interaction cases the PR's satellite demands -- a restore
// landing mid-token-loss-recovery and a master dying while the
// re-admission queue drains.
#include "services/resilience.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "fault/injector.hpp"
#include "net/network.hpp"
#include "support/delivery_log.hpp"

namespace ccredf::services {
namespace {

using sim::Duration;
using sim::TimePoint;
using NodeState = ResilienceMonitor::NodeState;

net::NetworkConfig cfg6() {
  net::NetworkConfig cfg;
  cfg.nodes = 6;
  return cfg;
}

core::ConnectionParams rt(NodeId src, NodeId dst, std::int64_t size,
                          std::int64_t period) {
  core::ConnectionParams p;
  p.source = src;
  p.dests = NodeSet::single(dst);
  p.size_slots = size;
  p.period_slots = period;
  return p;
}

ResilienceParams fast_params(std::int64_t window = 8) {
  ResilienceParams rp;
  rp.detection_window_slots = window;
  rp.readmit_interval_slots = 1;
  rp.readmit_burst = 4;
  rp.backoff_slots = 4;
  rp.max_backoff_slots = 64;
  return rp;
}

TEST(Resilience, ParamsValidate) {
  EXPECT_NO_THROW(ResilienceParams{}.validate());
  ResilienceParams rp;
  rp.detection_window_slots = 1;
  EXPECT_THROW(rp.validate(), ConfigError);
  rp = ResilienceParams{};
  rp.suspect_window_slots = rp.detection_window_slots;
  EXPECT_THROW(rp.validate(), ConfigError);
  rp = ResilienceParams{};
  rp.readmit_burst = 0;
  EXPECT_THROW(rp.validate(), ConfigError);
  rp = ResilienceParams{};
  rp.max_backoff_slots = rp.backoff_slots - 1;
  EXPECT_THROW(rp.validate(), ConfigError);
}

TEST(Resilience, SecondMonitorIsRejected) {
  net::Network n(cfg6());
  ResilienceMonitor m(n, fast_params());
  EXPECT_THROW(ResilienceMonitor(n, fast_params()), ConfigError);
}

TEST(Resilience, DetachesOnDestruction) {
  net::Network n(cfg6());
  {
    ResilienceMonitor m(n, fast_params());
    ASSERT_EQ(n.listeners().size(), 1u);
    EXPECT_EQ(n.listeners().front(), &m);
  }
  EXPECT_TRUE(n.listeners().empty());
  // A fresh monitor can attach after the old one is gone.
  ResilienceMonitor m2(n, fast_params());
  ASSERT_EQ(n.listeners().size(), 1u);
  EXPECT_EQ(n.listeners().front(), &m2);
}

TEST(Resilience, DetectionWithinWindowPlusOne) {
  net::Network n(cfg6());
  ResilienceMonitor m(n, fast_params(/*window=*/8));
  ASSERT_TRUE(n.fail_node(3));
  n.run_slots(30);
  EXPECT_EQ(m.state(3), NodeState::kDown);
  EXPECT_TRUE(m.is_down(3));
  EXPECT_EQ(m.stats().downs, 1);
  EXPECT_GE(m.stats().suspects, 1);  // passed through kSuspect on the way
  // Latency is miss count at declaration: first slot with miss > window,
  // i.e. exactly window + 1 when evidence flows every slot.
  EXPECT_EQ(m.stats().detection_latency_slots.max(), 9.0);
  // Everyone else stayed up the whole time.
  for (NodeId j = 0; j < 6; ++j) {
    if (j != 3) {
      EXPECT_EQ(m.state(j), NodeState::kUp) << "node " << j;
    }
  }
}

TEST(Resilience, HealthyRingNeverSuspects) {
  net::Network n(cfg6());
  ResilienceMonitor m(n, fast_params());
  n.send_best_effort(1, NodeSet::single(4), 1, Duration::milliseconds(50));
  n.run_slots(200);
  EXPECT_EQ(m.stats().suspects, 0);
  EXPECT_EQ(m.stats().downs, 0);
  EXPECT_EQ(m.readmit_queue_depth(), 0u);
}

TEST(Resilience, QuarantineReleasesExactWeight) {
  net::Network n(cfg6());
  ResilienceMonitor m(n, fast_params());
  const auto c1 = n.open_connection(rt(3, 1, 1, 20));
  const auto c2 = n.open_connection(rt(3, 5, 2, 40));
  core::CbsParams cp;
  cp.source = 3;
  cp.dests = NodeSet::single(0);
  cp.budget_slots = 2;
  cp.period_slots = 25;
  const auto s1 = n.open_cbs_server(cp);
  ASSERT_TRUE(c1.admitted && c2.admitted && s1.admitted);
  const auto survivor = n.open_connection(rt(1, 2, 1, 30));
  ASSERT_TRUE(survivor.admitted);

  const double u_before = n.admission().utilisation();
  const double expect_released = n.admission().weight(rt(3, 1, 1, 20)) +
                                 n.admission().weight(rt(3, 5, 2, 40)) +
                                 n.admission().weight(cp.admission_params());
  ASSERT_TRUE(n.fail_node(3));
  n.run_slots(20);

  EXPECT_EQ(m.stats().connections_quarantined, 2);
  EXPECT_EQ(m.stats().servers_quarantined, 1);
  EXPECT_DOUBLE_EQ(m.stats().weight_reclaimed, expect_released);
  EXPECT_DOUBLE_EQ(n.admission().utilisation(), u_before - expect_released);
  EXPECT_EQ(m.stats().reclaim_error, 0.0);
  EXPECT_EQ(m.readmit_queue_depth(), 3u);
  EXPECT_DOUBLE_EQ(m.quarantined_weight(), expect_released);
  EXPECT_TRUE(n.connections_of(3).empty());
  EXPECT_TRUE(n.cbs_servers_of(3).empty());
  // Quarantined ids map to "queued" until re-admission; survivors map to
  // themselves.
  EXPECT_EQ(m.current_incarnation(c1.id), kNoConnection);
  EXPECT_EQ(m.current_incarnation(s1.id), kNoConnection);
  EXPECT_EQ(m.current_incarnation(survivor.id), survivor.id);
}

TEST(Resilience, SurvivorAdmittedIntoFreedBandwidth) {
  net::Network n(cfg6());
  ResilienceMonitor m(n, fast_params());
  // Saturate admission so the survivor's request must bounce, sourcing
  // the bulk of the load at node 4.
  const double u_max = n.admission().effective_u_max();
  const std::int64_t period = 100;
  const auto big = static_cast<std::int64_t>(u_max * period) - 1;
  ASSERT_GT(big, 1);
  ASSERT_TRUE(n.open_connection(rt(4, 2, big, period)).admitted);
  core::ConnectionParams want = rt(1, 5, big / 2, period);
  EXPECT_FALSE(n.open_connection(want).admitted);

  // Node 4 dies; its weight returns to the pool and the SAME request now
  // fits -- survivors reuse quarantined bandwidth immediately.
  ASSERT_TRUE(n.fail_node(4));
  n.run_slots(20);
  ASSERT_EQ(m.stats().downs, 1);
  EXPECT_GT(m.quarantined_weight(), 0.0);
  EXPECT_TRUE(n.open_connection(want).admitted);
}

TEST(Resilience, StagedReadmissionPacedByTokenBucket) {
  net::Network n(cfg6());
  ResilienceParams rp = fast_params();
  rp.readmit_interval_slots = 10;
  rp.readmit_burst = 1;
  ResilienceMonitor m(n, rp);
  for (NodeId d : {0u, 1u, 2u}) {
    ASSERT_TRUE(n.open_connection(rt(4, d, 1, 50)).admitted);
  }
  ASSERT_TRUE(n.fail_node(4));
  n.run_slots(20);
  ASSERT_EQ(m.readmit_queue_depth(), 3u);

  ASSERT_TRUE(n.restore_node(4));
  // Record the slot of every successful re-admission.
  std::vector<SlotIndex> drains;
  std::int64_t seen = m.stats().readmissions;
  for (int i = 0; i < 60 && m.readmit_queue_depth() > 0; ++i) {
    n.run_slots(1);
    if (m.stats().readmissions > seen) {
      drains.push_back(n.current_slot());
      seen = m.stats().readmissions;
    }
  }
  ASSERT_EQ(drains.size(), 3u);
  EXPECT_EQ(m.stats().readmit_attempts, 3);
  EXPECT_EQ(m.stats().readmit_rejections, 0);
  // One token per 10 slots, capacity 1: consecutive drains at least a
  // full refill interval apart -- no thundering herd.
  EXPECT_GE(drains[1] - drains[0], rp.readmit_interval_slots);
  EXPECT_GE(drains[2] - drains[1], rp.readmit_interval_slots);
  EXPECT_DOUBLE_EQ(m.quarantined_weight(), 0.0);
  EXPECT_EQ(n.connections_of(4).size(), 3u);
}

TEST(Resilience, RejectedReadmissionBacksOffThenLands) {
  net::Network n(cfg6());
  ResilienceParams rp = fast_params();
  rp.backoff_slots = 16;
  rp.max_backoff_slots = 256;
  ResilienceMonitor m(n, rp);
  const double u_max = n.admission().effective_u_max();
  const std::int64_t period = 100;
  const auto big = static_cast<std::int64_t>(u_max * period) - 1;
  const auto victim = n.open_connection(rt(5, 2, big, period));
  ASSERT_TRUE(victim.admitted);

  ASSERT_TRUE(n.fail_node(5));
  n.run_slots(20);
  ASSERT_EQ(m.readmit_queue_depth(), 1u);
  // A survivor takes the freed bandwidth before node 5 returns.
  const auto squatter = n.open_connection(rt(1, 3, big, period));
  ASSERT_TRUE(squatter.admitted);

  ASSERT_TRUE(n.restore_node(5));
  n.run_slots(10);
  // The attempt ran, bounced, and the entry is parked in back-off; the
  // bucket does NOT retry it every slot.
  EXPECT_GE(m.stats().readmit_rejections, 1);
  EXPECT_EQ(m.stats().readmissions, 0);
  const std::int64_t rejections_now = m.stats().readmit_rejections;
  n.run_slots(5);
  EXPECT_EQ(m.stats().readmit_rejections, rejections_now);  // backing off
  EXPECT_EQ(m.readmit_queue_depth(), 1u);

  // The squatter leaves; after the back-off expires the retry succeeds
  // and the incarnation chain points at the fresh id.
  ASSERT_TRUE(n.close_connection(squatter.id));
  n.run_slots(600);
  EXPECT_EQ(m.stats().readmissions, 1);
  EXPECT_EQ(m.readmit_queue_depth(), 0u);
  const ConnectionId successor = m.current_incarnation(victim.id);
  EXPECT_NE(successor, kNoConnection);
  EXPECT_NE(successor, victim.id);  // admission never reuses ids
  ASSERT_EQ(n.connections_of(5).size(), 1u);
  EXPECT_EQ(n.connections_of(5)[0].id, successor);
}

TEST(Resilience, FalsePositiveSelfHealsWithoutRestore) {
  // The node never fails -- a burst of dropped collection records just
  // makes it LOOK dead.  The monitor must declare it down (the evidence
  // is indistinguishable), then self-heal on the next heard record:
  // reappearance counted and its connection re-admitted with no
  // restore_node() anywhere.
  net::Network n(cfg6());
  ResilienceParams rp = fast_params(/*window=*/6);
  ResilienceMonitor m(n, rp);
  const auto c = n.open_connection(rt(2, 5, 1, 40));
  ASSERT_TRUE(c.admitted);
  fault::FaultInjector inj(n, /*seed=*/7);
  for (SlotIndex s = 1; s <= 7; ++s) inj.schedule_collection_drop(s, 2);

  n.run_slots(40);
  EXPECT_EQ(m.stats().downs, 1);
  EXPECT_EQ(m.stats().reappearances, 1);
  EXPECT_EQ(m.state(2), NodeState::kUp);
  EXPECT_EQ(m.stats().readmissions, 1);
  EXPECT_EQ(m.readmit_queue_depth(), 0u);
  EXPECT_DOUBLE_EQ(m.quarantined_weight(), 0.0);
  EXPECT_NE(m.current_incarnation(c.id), kNoConnection);
  EXPECT_TRUE(n.failed_nodes().empty());  // it really never failed
}

// -- satellite: churn x token-loss interaction cases ---------------------

TEST(Resilience, RestoreMidTokenLossRecoveryStaysClean) {
  // Node 0 is the initial master; it dies mid-slot (token lost) and is
  // restored BEFORE the restarter timeout elapses.  The outage is far
  // shorter than the detection window, so the monitor must ride through
  // it -- one recovery, zero declarations, node back to kUp -- and the
  // ring must carry traffic afterwards.
  net::NetworkConfig cfg = cfg6();
  cfg.designated_restarter = 2;
  net::Network n(cfg);
  DeliveryLog log(n);
  ResilienceMonitor m(n, fast_params(/*window=*/12));
  fault::FaultInjector inj(n);
  inj.schedule_node_failure(0, TimePoint::origin() + n.timing().slot() / 2);
  inj.schedule_node_restore(0, TimePoint::origin() + n.timing().slot() * 2);
  n.run_slots(30);
  EXPECT_EQ(n.recoveries(), 1);
  EXPECT_EQ(m.stats().downs, 0);
  EXPECT_EQ(m.stats().reappearances, 0);
  EXPECT_EQ(m.state(0), NodeState::kUp);
  n.send_best_effort(0, NodeSet::single(3), 1, Duration::milliseconds(5));
  n.run_slots(10);
  EXPECT_EQ(log.inbox(3).size(), 1u);
}

TEST(Resilience, MasterFailureDuringReadmitDrainRecoversAndDrains) {
  // Node 4 is declared down and restored, so its three connections sit
  // in the staged re-admission queue.  While the queue drains, the
  // CURRENT MASTER dies mid-slot: token loss, restarter recovery, a
  // second detection cycle -- and the drain must still complete for both
  // nodes once the dust settles.
  net::NetworkConfig cfg = cfg6();
  cfg.designated_restarter = 0;
  net::Network n(cfg);
  ResilienceParams rp = fast_params(/*window=*/6);
  rp.readmit_interval_slots = 20;  // slow drain: 3 entries take ~40 slots
  rp.readmit_burst = 1;
  ResilienceMonitor m(n, rp);
  fault::FaultInjector inj(n);
  for (NodeId d : {0u, 1u, 2u}) {
    ASSERT_TRUE(n.open_connection(rt(4, d, 1, 50)).admitted);
  }
  // Node 1 carries a tight periodic stream: mastership follows the
  // highest-priority requester, so node 1 holds the clock most slots --
  // making it the master we can kill on cue.
  ASSERT_TRUE(n.open_connection(rt(1, 3, 1, 3)).admitted);
  const double u_full = n.admission().utilisation();

  ASSERT_TRUE(n.fail_node(4));
  n.run_slots(15);
  ASSERT_EQ(m.stats().downs, 1);
  ASSERT_EQ(m.readmit_queue_depth(), 3u);
  ASSERT_TRUE(n.restore_node(4));
  // Let the drain start but not finish (1 token per 20 slots, 3 entries).
  n.run_slots(2);
  ASSERT_GT(m.readmit_queue_depth(), 0u);

  // Wait for node 1 to hold the clock, then kill it mid-slot: the token
  // dies with it while node 4's entries are still queued.
  int guard = 0;
  while (n.current_master() != 1 && guard++ < 100) n.run_slots(1);
  ASSERT_EQ(n.current_master(), 1u);
  ASSERT_GT(m.readmit_queue_depth(), 0u);
  const TimePoint now = n.sim().now();
  inj.schedule_node_failure(1, now + n.timing().slot() / 2);
  inj.schedule_node_restore(1, now + n.timing().slot() * 40);

  n.run_slots(400);
  EXPECT_GE(n.recoveries(), 1);
  // Both churn victims completed the loop: the master's death was
  // detected (second declaration, quarantining its stream too) and every
  // queued entry re-admitted once its owner reappeared.
  EXPECT_EQ(m.stats().downs, 2);
  EXPECT_EQ(m.stats().reappearances, 2);
  EXPECT_EQ(m.readmit_queue_depth(), 0u);
  EXPECT_EQ(m.stats().readmissions, m.stats().readmit_attempts -
                                        m.stats().readmit_rejections);
  EXPECT_EQ(n.connections_of(4).size(), 3u);
  EXPECT_EQ(n.connections_of(1).size(), 1u);
  EXPECT_EQ(m.state(1), NodeState::kUp);
  EXPECT_EQ(m.state(4), NodeState::kUp);
  EXPECT_DOUBLE_EQ(m.quarantined_weight(), 0.0);
  EXPECT_NEAR(n.admission().utilisation(), u_full, 1e-12);
}

}  // namespace
}  // namespace ccredf::services
