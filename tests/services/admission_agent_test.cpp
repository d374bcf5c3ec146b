#include "services/admission_agent.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/error.hpp"
#include "fault/injector.hpp"

namespace ccredf::services {
namespace {

using core::ConnectionParams;
using core::TrafficClass;

net::NetworkConfig cfg8() {
  net::NetworkConfig cfg;
  cfg.nodes = 8;
  return cfg;
}

ConnectionParams conn(NodeId src, NodeId dst, std::int64_t e,
                      std::int64_t p) {
  ConnectionParams c;
  c.source = src;
  c.dests = NodeSet::single(dst);
  c.size_slots = e;
  c.period_slots = p;
  return c;
}

TEST(AdmissionAgent, NegotiationAdmitsOverBestEffort) {
  net::Network n(cfg8());
  AdmissionAgent agent(n, AdmissionAgent::Params{});
  bool done = false, admitted = false;
  ConnectionId id = kNoConnection;
  agent.request(3, conn(3, 6, 1, 20), [&](bool ok, ConnectionId cid) {
    done = true;
    admitted = ok;
    id = cid;
  });
  // The callback cannot fire before the request and reply messages have
  // crossed the ring (>= 2 slots each way is impossible in 1 slot).
  n.run_slots(1);
  EXPECT_FALSE(done);
  n.run_slots(20);
  ASSERT_TRUE(done);
  EXPECT_TRUE(admitted);
  EXPECT_NE(id, kNoConnection);
  EXPECT_EQ(agent.replies_delivered(), 1);
  // The connection then delivers periodically.
  n.run_slots(100);
  EXPECT_GT(n.stats().cls(TrafficClass::kRealTime).delivered, 2);
}

TEST(AdmissionAgent, RejectionAlsoNotified) {
  net::Network n(cfg8());
  AdmissionAgent agent(n, AdmissionAgent::Params{});
  // First, fill the budget directly.
  const double u_max = n.admission().u_max();
  const auto hog_period = static_cast<std::int64_t>(20.0 / (0.95 * u_max));
  ASSERT_TRUE(n.open_connection(conn(0, 4, 20, hog_period)).admitted);
  bool done = false, admitted = true;
  agent.request(2, conn(2, 5, 10, 40), [&](bool ok, ConnectionId) {
    done = true;
    admitted = ok;
  });
  n.run_slots(30);
  ASSERT_TRUE(done);
  EXPECT_FALSE(admitted);
}

TEST(AdmissionAgent, CoLocatedRequesterSkipsExchange) {
  net::NetworkConfig cfg = cfg8();
  net::Network n(cfg);
  AdmissionAgent agent(n, AdmissionAgent::Params{});  // admission node 0
  bool done = false;
  agent.request(0, conn(0, 4, 1, 20), [&](bool ok, ConnectionId) {
    done = true;
    EXPECT_TRUE(ok);
  });
  EXPECT_TRUE(done);  // immediate, no simulation needed
}

TEST(AdmissionAgent, NoReleaseBeforeNotification) {
  net::Network n(cfg8());
  AdmissionAgent::Params p;
  p.activation_margin_slots = 8;
  AdmissionAgent agent(n, p);
  sim::TimePoint notified = sim::TimePoint::infinity();
  agent.request(5, conn(5, 2, 1, 25), [&](bool ok, ConnectionId) {
    ASSERT_TRUE(ok);
    notified = n.sim().now();
  });
  sim::TimePoint first_rt_delivery = sim::TimePoint::infinity();
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    for (const auto& d : rec.deliveries) {
      if (d.traffic_class == TrafficClass::kRealTime &&
          first_rt_delivery == sim::TimePoint::infinity()) {
        first_rt_delivery = d.completed;
      }
    }
  });
  n.run_slots(100);
  ASSERT_LT(notified, sim::TimePoint::infinity());
  ASSERT_LT(first_rt_delivery, sim::TimePoint::infinity());
  EXPECT_LT(notified, first_rt_delivery);
}

TEST(AdmissionAgent, ManyConcurrentNegotiations) {
  net::Network n(cfg8());
  AdmissionAgent agent(n, AdmissionAgent::Params{});
  int done = 0, admitted = 0;
  for (NodeId r = 1; r < 8; ++r) {
    agent.request(r, conn(r, (r + 3) % 8, 1, 60),
                  [&](bool ok, ConnectionId) {
                    ++done;
                    if (ok) ++admitted;
                  });
  }
  n.run_slots(120);
  EXPECT_EQ(done, 7);
  EXPECT_EQ(admitted, 7);  // tiny utilisations: all fit
  EXPECT_EQ(agent.requests_sent(), 7);
}

TEST(AdmissionAgent, ValidatesConfig) {
  net::Network n(cfg8());
  AdmissionAgent::Params p;
  p.admission_node = 99;
  EXPECT_THROW(AdmissionAgent(n, p), ConfigError);
  p = AdmissionAgent::Params{};
  p.message_laxity_slots = 0;
  EXPECT_THROW(AdmissionAgent(n, p), ConfigError);
}

// -- health monitor: graceful degradation --------------------------------

net::NetworkConfig cfg8_payload_crc() {
  net::NetworkConfig cfg = cfg8();
  cfg.with_acks = true;
  cfg.with_payload_crc = true;
  return cfg;
}

void open_probe_traffic(net::Network& n) {
  // A few periodic connections so the monitor has transfers to observe.
  for (NodeId src = 0; src < 4; ++src) {
    ASSERT_TRUE(
        n.open_connection(conn(src, (src + 3) % 8, 1, 10)).admitted);
  }
}

TEST(AdmissionAgent, HealthMonitorDeratesUnderCorruptionAndRecovers) {
  net::Network n(cfg8_payload_crc());
  fault::FaultInjector inj(n, /*seed=*/23);
  inj.set_data_ber(2e-4);  // heavy corruption: most transfers are hit
  AdmissionAgent::Params p;
  p.health_window_slots = 300;
  p.derate_threshold = 0.005;
  AdmissionAgent agent(n, p);
  open_probe_traffic(n);
  n.run_slots(700);  // two complete windows

  EXPECT_GT(agent.observed_corruption_rate(), p.derate_threshold);
  EXPECT_LT(agent.capacity_factor(), 1.0);
  EXPECT_NEAR(agent.capacity_factor(),
              1.0 - agent.observed_corruption_rate(), 1e-12);
  EXPECT_GE(agent.renegotiations(), 1);
  // The factor is actually enforced on the controller, which counts the
  // same renegotiations.
  EXPECT_DOUBLE_EQ(n.admission().capacity_factor(),
                   agent.capacity_factor());
  EXPECT_LT(n.admission().effective_u_max(), n.admission().u_max());
  EXPECT_EQ(n.admission().renegotiations(), agent.renegotiations());
  // Per-link localisation: the sources of the probe traffic show a
  // non-zero corruption rate.
  double worst = 0.0;
  for (NodeId i = 0; i < 4; ++i) {
    worst = std::max(worst, agent.link_corruption_rate(i));
  }
  EXPECT_GT(worst, 0.0);

  // The channel heals: the factor recovers to 1 and admissions reopen.
  inj.set_data_ber(0.0);
  const std::int64_t renegs_before = agent.renegotiations();
  n.run_slots(700);
  EXPECT_DOUBLE_EQ(agent.capacity_factor(), 1.0);
  EXPECT_DOUBLE_EQ(n.admission().effective_u_max(), n.admission().u_max());
  EXPECT_GT(agent.renegotiations(), renegs_before);
}

TEST(AdmissionAgent, HealthMonitorOffByDefault) {
  // health_window_slots defaults to 0: corruption must not move the
  // admission bound unless the monitor was asked for.
  net::Network n(cfg8_payload_crc());
  fault::FaultInjector inj(n, /*seed=*/23);
  inj.set_data_ber(2e-4);
  AdmissionAgent agent(n, AdmissionAgent::Params{});
  open_probe_traffic(n);
  n.run_slots(700);
  EXPECT_DOUBLE_EQ(agent.capacity_factor(), 1.0);
  EXPECT_EQ(agent.renegotiations(), 0);
  EXPECT_DOUBLE_EQ(n.admission().effective_u_max(), n.admission().u_max());
  EXPECT_EQ(n.admission().renegotiations(), 0);
  EXPECT_GT(n.stats().faults.payload_corruptions, 0);  // faults did occur
}

TEST(AdmissionAgent, HealthMonitorValidatesParams) {
  net::Network n(cfg8_payload_crc());
  AdmissionAgent::Params p;
  p.health_window_slots = -1;
  EXPECT_THROW(AdmissionAgent(n, p), ConfigError);
  p = AdmissionAgent::Params{};
  p.derate_threshold = -0.5;
  EXPECT_THROW(AdmissionAgent(n, p), ConfigError);
}

}  // namespace
}  // namespace ccredf::services
