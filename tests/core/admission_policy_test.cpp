// Density-based admission for deadline-constrained connections (the
// D_i < P_i extension; paper §5 assumes D_i = P_i).
#include <gtest/gtest.h>

#include "core/admission.hpp"
#include "net/network.hpp"

namespace ccredf::core {
namespace {

ConnectionParams conn(std::int64_t e, std::int64_t p, std::int64_t d = 0) {
  ConnectionParams c;
  c.source = 0;
  c.dests = NodeSet::single(1);
  c.size_slots = e;
  c.period_slots = p;
  c.deadline_slots = d;
  return c;
}

TEST(AdmissionPolicy, WeightsAgreeWhenDeadlineEqualsPeriod) {
  const AdmissionController u(1.0, AdmissionPolicy::kUtilisation);
  const AdmissionController d(1.0, AdmissionPolicy::kDensity);
  const auto c = conn(2, 10);
  EXPECT_DOUBLE_EQ(u.weight(c), 0.2);
  EXPECT_DOUBLE_EQ(d.weight(c), 0.2);
}

TEST(AdmissionPolicy, DensityWeighsConstrainedDeadlines) {
  const AdmissionController d(1.0, AdmissionPolicy::kDensity);
  EXPECT_DOUBLE_EQ(d.weight(conn(2, 10, 4)), 0.5);  // e / D
  const AdmissionController u(1.0, AdmissionPolicy::kUtilisation);
  EXPECT_DOUBLE_EQ(u.weight(conn(2, 10, 4)), 0.2);  // e / P (unsafe!)
}

TEST(AdmissionPolicy, DensityRejectsWhatUtilisationWronglyAccepts) {
  // Two connections, each e=2 P=10 D=4: density 0.5 + 0.5 > 0.8 bound,
  // utilisation 0.2 + 0.2 <= 0.8.
  AdmissionController util(0.8, AdmissionPolicy::kUtilisation);
  AdmissionController dens(0.8, AdmissionPolicy::kDensity);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(util.request(conn(2, 10, 4)).admitted);
  }
  EXPECT_TRUE(dens.request(conn(2, 10, 4)).admitted);
  EXPECT_FALSE(dens.request(conn(2, 10, 4)).admitted);
}

TEST(AdmissionPolicy, DensityReleaseRestoresBudget) {
  AdmissionController dens(0.6, AdmissionPolicy::kDensity);
  ASSERT_TRUE(dens.request(conn(2, 10, 4)).admitted);
  EXPECT_NEAR(dens.utilisation(), 0.5, 1e-12);
  dens.release(conn(2, 10, 4));
  EXPECT_NEAR(dens.utilisation(), 0.0, 1e-12);
}

TEST(AdmissionPolicy, NetworkHonoursConfiguredPolicy) {
  net::NetworkConfig cfg;
  cfg.nodes = 6;
  cfg.admission_policy = AdmissionPolicy::kDensity;
  net::Network n(cfg);
  EXPECT_EQ(n.admission().policy(), AdmissionPolicy::kDensity);
}

TEST(AdmissionPolicy, DensityAdmittedConstrainedDeadlinesAreMet) {
  // End to end: constrained-deadline connections admitted under density
  // keep their user-level guarantee.
  net::NetworkConfig cfg;
  cfg.nodes = 6;
  cfg.admission_policy = AdmissionPolicy::kDensity;
  net::Network n(cfg);
  ConnectionParams c;
  c.source = 0;
  c.dests = NodeSet::single(3);
  c.size_slots = 1;
  c.period_slots = 30;
  c.deadline_slots = 6;  // deadline well short of the period
  ASSERT_TRUE(n.open_connection(c).admitted);
  ConnectionParams c2 = c;
  c2.source = 2;
  c2.dests = NodeSet::single(5);
  c2.deadline_slots = 8;
  ASSERT_TRUE(n.open_connection(c2).admitted);
  n.run_slots(3000);
  const auto& rt = n.stats().cls(TrafficClass::kRealTime);
  EXPECT_GT(rt.delivered, 150);
  EXPECT_EQ(rt.user_misses, 0);
}

TEST(AdmissionPolicy, UtilisationPolicyCanOversubscribeConstrained) {
  // Documented hazard: with kUtilisation, heavy constrained-deadline sets
  // can be admitted beyond what their deadlines allow.  We only verify
  // the admission decision differs; scheduling consequences depend on
  // phasing.
  net::NetworkConfig cfg_u, cfg_d;
  cfg_u.nodes = cfg_d.nodes = 6;
  cfg_d.admission_policy = AdmissionPolicy::kDensity;
  net::Network nu(cfg_u), nd(cfg_d);
  ConnectionParams c;
  c.source = 0;
  c.dests = NodeSet::single(3);
  c.size_slots = 4;
  c.period_slots = 40;
  c.deadline_slots = 5;  // density 0.8 vs utilisation 0.1
  int admitted_u = 0, admitted_d = 0;
  for (NodeId i = 0; i < 5; ++i) {
    ConnectionParams ci = c;
    ci.source = i;
    ci.dests = NodeSet::single((i + 3) % 6);
    if (nu.open_connection(ci).admitted) ++admitted_u;
    if (nd.open_connection(ci).admitted) ++admitted_d;
  }
  EXPECT_EQ(admitted_u, 5);  // utilisation test sees only 0.5 total
  EXPECT_LE(admitted_d, 1);  // density test sees 0.8 each
}

}  // namespace
}  // namespace ccredf::core
