#include "core/admission.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace ccredf::core {
namespace {

ConnectionParams conn(std::int64_t e, std::int64_t p) {
  ConnectionParams c;
  c.source = 0;
  c.dests = NodeSet::single(1);
  c.size_slots = e;
  c.period_slots = p;
  return c;
}

TEST(Admission, AcceptsWithinBound) {
  AdmissionController a(0.8);
  const auto d = a.request(conn(1, 4));
  EXPECT_TRUE(d.admitted);
  EXPECT_NE(d.id, kNoConnection);
  EXPECT_DOUBLE_EQ(a.utilisation(), 0.25);
}

TEST(Admission, RejectsBeyondBound) {
  AdmissionController a(0.5);
  EXPECT_TRUE(a.request(conn(1, 4)).admitted);  // 0.25
  EXPECT_TRUE(a.request(conn(1, 4)).admitted);  // 0.50
  const auto d = a.request(conn(1, 100));
  EXPECT_FALSE(d.admitted);
  EXPECT_EQ(d.id, kNoConnection);
  EXPECT_EQ(a.rejections(), 1);
  EXPECT_DOUBLE_EQ(a.utilisation(), 0.5);
}

TEST(Admission, ExactBoundaryIsAdmitted) {
  // Eq. 5 is a <= test.
  AdmissionController a(0.5);
  EXPECT_TRUE(a.request(conn(1, 2)).admitted);
  EXPECT_FALSE(a.request(conn(1, 1000)).admitted);
}

TEST(Admission, ManySmallConnectionsSumToExactlyBound) {
  // Floating-point sum of ten 0.05 shares against a 0.5 bound -- the
  // epsilon in the controller must forgive accumulated rounding.
  AdmissionController a(0.5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(a.request(conn(1, 20)).admitted) << i;
  }
  EXPECT_FALSE(a.request(conn(1, 20)).admitted);
}

TEST(Admission, ReleaseFreesUtilisation) {
  AdmissionController a(0.5);
  ASSERT_TRUE(a.request(conn(1, 2)).admitted);
  EXPECT_FALSE(a.request(conn(1, 2)).admitted);
  a.release(conn(1, 2));
  EXPECT_TRUE(a.request(conn(1, 2)).admitted);
}

TEST(Admission, IdsAreUnique) {
  AdmissionController a(10.0);
  const auto d1 = a.request(conn(1, 10));
  const auto d2 = a.request(conn(1, 10));
  EXPECT_NE(d1.id, d2.id);
}

TEST(Admission, CountsRequests) {
  AdmissionController a(0.3);
  (void)a.request(conn(1, 4));
  (void)a.request(conn(1, 2));  // rejected
  EXPECT_EQ(a.requests_seen(), 2);
  EXPECT_EQ(a.rejections(), 1);
}

TEST(Admission, InvalidParamsThrow) {
  AdmissionController a(1.0);
  auto bad = conn(0, 4);
  EXPECT_THROW((void)a.request(bad), ConfigError);
}

TEST(Admission, UtilisationNeverNegativeAfterReleases) {
  AdmissionController a(1.0);
  ASSERT_TRUE(a.request(conn(1, 3)).admitted);
  a.release(conn(1, 3));
  EXPECT_GE(a.utilisation(), 0.0);
  EXPECT_NEAR(a.utilisation(), 0.0, 1e-12);
}

// -- capacity derating (graceful degradation) ----------------------------

TEST(Admission, CapacityFactorDeratesEffectiveBound) {
  AdmissionController a(0.8);
  EXPECT_DOUBLE_EQ(a.capacity_factor(), 1.0);
  EXPECT_DOUBLE_EQ(a.effective_u_max(), 0.8);
  a.set_capacity_factor(0.5);
  EXPECT_DOUBLE_EQ(a.effective_u_max(), 0.4);
  EXPECT_TRUE(a.request(conn(1, 4)).admitted);  // 0.25
  EXPECT_FALSE(a.request(conn(1, 4)).admitted);
  // Recovery: the same request fits once the channel heals.
  a.set_capacity_factor(1.0);
  EXPECT_TRUE(a.request(conn(1, 4)).admitted);
}

TEST(Admission, CapacityFactorDoesNotEvictAdmittedConnections) {
  // Derating constrains NEW admissions; connections admitted before the
  // factor dropped keep their slots (utilisation may exceed the derated
  // bound until they are released).
  AdmissionController a(0.8);
  ASSERT_TRUE(a.request(conn(1, 2)).admitted);  // 0.5
  a.set_capacity_factor(0.25);  // effective bound now 0.2 < 0.5
  EXPECT_DOUBLE_EQ(a.utilisation(), 0.5);
  EXPECT_FALSE(a.request(conn(1, 100)).admitted);
}

TEST(Admission, CapacityFactorValidated) {
  AdmissionController a(0.8);
  EXPECT_THROW(a.set_capacity_factor(-0.1), ConfigError);
  EXPECT_THROW(a.set_capacity_factor(1.5), ConfigError);
  EXPECT_NO_THROW(a.set_capacity_factor(0.0));
  EXPECT_NO_THROW(a.set_capacity_factor(1.0));
}

}  // namespace
}  // namespace ccredf::core
