// Hypercycle-planner engine tests (PROTOCOL.md section 9, DESIGN.md
// section 13): planner-backed admission past the Eq. 6 per-slot ceiling
// with zero misses, exact divergence back to slot-by-slot TCMA on every
// event outside the plan's model, and byte-identical statistics between
// the plan-driven fast-forward and slot-by-slot execution paths.
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "services/resilience.hpp"
#include "support/stats_fingerprint.hpp"

namespace ccredf::net {
namespace {

using core::ConnectionParams;
using core::TrafficClass;

NetworkConfig cfg8(bool planner = true, bool fast_forward = true) {
  NetworkConfig cfg;
  cfg.nodes = 8;
  cfg.planner = planner;
  cfg.fast_forward = fast_forward;
  cfg.record_inboxes = false;
  return cfg;
}

ConnectionParams conn(NodeId src, NodeId dst, std::int64_t e,
                      std::int64_t p, std::int64_t offset = 0) {
  ConnectionParams c;
  c.source = src;
  c.dests = NodeSet::single(dst);
  c.size_slots = e;
  c.period_slots = p;
  c.offset_slots = offset;
  return c;
}

/// Two 1-hop streams per unit segment on all 8 segments: utilisation
/// 16/8 = 2.0, far past U_max < 1 -- admissible only through the
/// planner's constructive spatial-reuse schedule.
std::vector<ConnectionParams> past_umax_set() {
  std::vector<ConnectionParams> v;
  for (NodeId i = 0; i < 8; ++i) {
    v.push_back(conn(i, static_cast<NodeId>((i + 1) % 8), 1, 8));
    v.push_back(conn(i, static_cast<NodeId>((i + 1) % 8), 1, 8));
  }
  return v;
}

TEST(Planner, AdmitsPastUmaxWithZeroMisses) {
  Network n(cfg8());
  for (const auto& c : past_umax_set()) {
    ASSERT_TRUE(n.open_connection(c).admitted);
  }
  ASSERT_TRUE(n.plan_valid());
  ASSERT_NE(n.planner(), nullptr);
  EXPECT_DOUBLE_EQ(n.planner()->planned_utilisation(), 2.0);
  EXPECT_GT(n.planner()->planned_utilisation(), n.admission().u_max());
  n.run_slots(20'000);
  const auto& rt = n.stats().cls(TrafficClass::kRealTime);
  EXPECT_GT(rt.delivered, 30'000);
  EXPECT_EQ(rt.scheduling_misses, 0);
  EXPECT_EQ(rt.user_misses, 0);
  EXPECT_GT(n.stats().planned_slots, 0);
  EXPECT_EQ(n.stats().plan_divergences, 0);
  EXPECT_TRUE(n.plan_engaged());
}

TEST(Planner, OffRejectsTheSameSet) {
  Network n(cfg8(/*planner=*/false));
  int rejected = 0;
  for (const auto& c : past_umax_set()) {
    if (!n.open_connection(c).admitted) ++rejected;
  }
  EXPECT_GT(rejected, 0);
  EXPECT_FALSE(n.plan_valid());
  EXPECT_EQ(n.planner(), nullptr);
}

TEST(Planner, InfeasibleOverloadStillRejected) {
  // Two streams through the SAME link (0->2 covers 0->1) at joint
  // utilisation 1.0: spatial reuse cannot overlap them, so the planner's
  // exact simulation must refuse what Eq. 5 already refused -- never a
  // wrong admission.
  Network n(cfg8());
  ASSERT_TRUE(n.open_connection(conn(0, 1, 1, 4)).admitted);
  const auto r = n.open_connection(conn(0, 2, 3, 4));
  EXPECT_FALSE(r.admitted);
  // The feasible first stream stays planned.
  EXPECT_TRUE(n.plan_valid());
  n.run_slots(2'000);
  EXPECT_EQ(n.stats().cls(TrafficClass::kRealTime).user_misses, 0);
}

TEST(Planner, CloseRebuildsOrInvalidates) {
  Network n(cfg8());
  const auto a = n.open_connection(conn(0, 1, 1, 8));
  const auto b = n.open_connection(conn(4, 5, 1, 8));
  ASSERT_TRUE(a.admitted);
  ASSERT_TRUE(b.admitted);
  ASSERT_TRUE(n.plan_valid());
  const auto builds_before = n.stats().plan_builds;
  n.run_slots(100);
  // Mid-stream close: the survivor has released jobs already, so the
  // rebuild refuses (the plan's layout assumes nominal first releases)
  // and the engine falls back to slot-by-slot TCMA -- which serves the
  // under-U_max survivor without misses.
  EXPECT_TRUE(n.close_connection(a.id));
  EXPECT_FALSE(n.plan_valid());
  EXPECT_EQ(n.stats().plan_builds, builds_before);
  n.run_slots(2'000);
  const auto& rt = n.stats().cls(TrafficClass::kRealTime);
  EXPECT_GT(rt.delivered, 200);
  EXPECT_EQ(rt.user_misses, 0);
}

TEST(Planner, FaultHookAttachDiverges) {
  Network n(cfg8());
  ASSERT_TRUE(n.open_connection(conn(0, 1, 1, 8)).admitted);
  ASSERT_TRUE(n.plan_engaged());
  fault::FaultInjector inj(n, 7);
  EXPECT_FALSE(n.plan_engaged());
  EXPECT_EQ(n.stats().plan_divergences, 1);
  n.run_slots(1'000);
  EXPECT_EQ(n.stats().planned_slots, 0);
}

TEST(Planner, ResilienceMonitorKeepsThePlan) {
  // A monitor never gates the plan: on a healthy planned ring it hears
  // every node and acts on nothing, so the run plans exactly the slots
  // it plans without the monitor, and every statistic agrees.
  const auto run = [](bool monitored) {
    Network n(cfg8());
    std::optional<services::ResilienceMonitor> mon;
    if (monitored) mon.emplace(n, services::ResilienceParams{});
    EXPECT_TRUE(n.open_connection(conn(0, 1, 1, 8)).admitted);
    EXPECT_TRUE(n.plan_engaged());
    n.run_slots(1'000);
    EXPECT_EQ(n.stats().plan_divergences, 0);
    return std::make_pair(n.stats().planned_slots, fingerprint(n));
  };
  const auto bare = run(false);
  EXPECT_GT(bare.first, 0);
  EXPECT_EQ(run(true), bare);

  // A failure diverges the plan first; the monitor then declares the
  // node down within its detection window plus one slot.
  Network n(cfg8());
  const services::ResilienceParams rp;
  services::ResilienceMonitor mon(n, rp);
  ASSERT_TRUE(n.open_connection(conn(0, 1, 1, 8)).admitted);
  n.run_slots(64);
  ASSERT_TRUE(n.plan_engaged());
  ASSERT_TRUE(n.fail_node(5));
  EXPECT_FALSE(n.plan_engaged());
  n.run_slots(rp.detection_window_slots + 1);
  EXPECT_TRUE(mon.is_down(5));
  EXPECT_EQ(mon.stats().downs, 1);
}

TEST(Planner, NodeChurnDiverges) {
  Network n(cfg8());
  ASSERT_TRUE(n.open_connection(conn(0, 1, 1, 8)).admitted);
  n.run_slots(64);
  ASSERT_TRUE(n.plan_engaged());
  ASSERT_TRUE(n.fail_node(5));
  EXPECT_FALSE(n.plan_engaged());
  EXPECT_EQ(n.stats().plan_divergences, 1);
  ASSERT_TRUE(n.restore_node(5));
  n.run_slots(1'000);
  EXPECT_EQ(n.stats().plan_divergences, 1);  // sticky, counted once
}

TEST(Planner, AperiodicTrafficDiverges) {
  Network n(cfg8());
  ASSERT_TRUE(n.open_connection(conn(0, 1, 1, 8)).admitted);
  n.run_slots(64);
  ASSERT_TRUE(n.plan_engaged());
  (void)n.send_best_effort(3, NodeSet::single(4), 1,
                           sim::Duration::infinity());
  EXPECT_FALSE(n.plan_engaged());
  n.run_slots(1'000);
  // TCMA serves both the periodic stream and the one-shot message.
  EXPECT_GT(n.stats().cls(TrafficClass::kBestEffort).delivered, 0);
  EXPECT_EQ(n.stats().cls(TrafficClass::kRealTime).user_misses, 0);
}

TEST(Planner, FastForwardVsSlotBySlotByteIdentical) {
  auto run = [](bool fast_forward) {
    Network n(cfg8(/*planner=*/true, fast_forward));
    for (const auto& c : past_umax_set()) {
      EXPECT_TRUE(n.open_connection(c).admitted);
    }
    n.run_slots(20'000);
    return fingerprint(n);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Planner, FastForwardVsSlotBySlotByteIdenticalWithOffsets) {
  // Staggered offsets and mixed periods: prefix bundles, waits and
  // cyclic bundles all interleave.
  auto run = [](bool fast_forward) {
    Network n(cfg8(/*planner=*/true, fast_forward));
    EXPECT_TRUE(n.open_connection(conn(0, 1, 1, 8, 3)).admitted);
    EXPECT_TRUE(n.open_connection(conn(2, 4, 2, 16)).admitted);
    EXPECT_TRUE(n.open_connection(conn(5, 6, 1, 12, 7)).admitted);
    n.run_slots(25'000);
    return fingerprint(n);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Planner, DivergenceMidRunStaysByteIdentical) {
  // The plan engages, then a best-effort message diverges it mid-run:
  // both engines must switch back to TCMA at the same slot boundary.
  auto run = [](bool fast_forward) {
    Network n(cfg8(/*planner=*/true, fast_forward));
    for (const auto& c : past_umax_set()) {
      EXPECT_TRUE(n.open_connection(c).admitted);
    }
    n.run_slots(5'000);
    (void)n.send_best_effort(3, NodeSet::single(4), 1,
                             sim::Duration::infinity());
    n.run_slots(5'000);
    return fingerprint(n);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Planner, DivergenceRestoresReleasesInOpeningOrder) {
  // Two identical streams tie on every deadline.  A ring that never
  // planned serves the earlier-opened one first: its release event was
  // scheduled first, and same-instant events fire FIFO.  When a
  // divergence hands the releases back to the event heap, the planned
  // ring must keep that order whatever else is open.
  for (const bool planner : {false, true}) {
    for (const int others : {0, 1, 3, 12}) {
      SCOPED_TRACE(std::string(planner ? "planner on, " : "planner off, ") +
                   std::to_string(others) + " other connections");
      Network n(cfg8(planner));
      const ConnectionId a = n.open_connection(conn(0, 1, 1, 16)).id;
      const ConnectionId b = n.open_connection(conn(0, 1, 1, 16)).id;
      for (int i = 0; i < others; ++i) {
        // Unrelated streams: own sources, distinct phases per source.
        const auto src = static_cast<NodeId>(2 + i % 6);
        const auto dst = static_cast<NodeId>((src + 1) % 8);
        EXPECT_TRUE(n.open_connection(conn(src, dst, 1, 64, (i / 6) * 8))
                        .admitted);
      }
      n.run_slots(800);
      EXPECT_EQ(n.plan_engaged(), planner);
      (void)n.send_best_effort(4, NodeSet::single(5), 1,
                               sim::Duration::infinity());
      EXPECT_FALSE(n.plan_engaged());
      // Completion instant of each tied job after the divergence, keyed
      // by its deadline.
      std::map<std::int64_t, std::int64_t> done_a;
      std::map<std::int64_t, std::int64_t> done_b;
      n.add_slot_observer([&](const SlotRecord& rec) {
        for (const auto& d : rec.deliveries) {
          if (d.connection == a) done_a[d.deadline.ps()] = d.completed.ps();
          if (d.connection == b) done_b[d.deadline.ps()] = d.completed.ps();
        }
      });
      n.run_slots(800);
      int ties = 0;
      for (const auto& [deadline, completed] : done_a) {
        const auto it = done_b.find(deadline);
        if (it == done_b.end()) continue;
        ++ties;
        EXPECT_LT(completed, it->second) << "deadline " << deadline;
      }
      EXPECT_GT(ties, 40);
    }
  }
}

TEST(Planner, OnVsOffByteIdenticalWhenNeverEngaged) {
  // With a fault hook attached before any admission the plan never
  // builds, so planner on/off must be byte-identical -- the sweep's
  // paired-cell gate for fault/churn/BER axes rests on this.
  auto run = [](bool planner) {
    Network n(cfg8(planner));
    fault::FaultInjector inj(n, 7);
    inj.set_control_ber(2e-6);
    inj.schedule_token_loss(1'000);
    for (const auto& c : {conn(0, 1, 1, 16), conn(3, 5, 1, 24)}) {
      EXPECT_TRUE(n.open_connection(c).admitted);
    }
    n.run_slots(8'000);
    return fingerprint(n);
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Planner, PlannedEngineMatchesUnplannedOutcomes) {
  // On a set BOTH engines admit, planned mode must change nothing a
  // user can observe: same deliveries, same misses, same wall time.
  Network off(cfg8(/*planner=*/false));
  ASSERT_TRUE(off.open_connection(conn(0, 1, 1, 8)).admitted);
  off.run_slots(10'000);
  Network on(cfg8(/*planner=*/true));
  ASSERT_TRUE(on.open_connection(conn(0, 1, 1, 8)).admitted);
  on.run_slots(10'000);
  EXPECT_GT(on.stats().planned_slots, 0);
  EXPECT_EQ(on.stats().cls(TrafficClass::kRealTime).delivered,
            off.stats().cls(TrafficClass::kRealTime).delivered);
  EXPECT_EQ(on.stats().cls(TrafficClass::kRealTime).user_misses, 0);
  EXPECT_EQ(off.stats().cls(TrafficClass::kRealTime).user_misses, 0);
  EXPECT_EQ(on.stats().time_in_slots.ps(), off.stats().time_in_slots.ps());
}

}  // namespace
}  // namespace ccredf::net
