#include "core/priority.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "net/network.hpp"

namespace ccredf::core {
namespace {

TEST(PriorityLayout, PaperTable1Allocation) {
  // 5-bit field (paper Fig. 4): 0 nothing, 1 NRT, 2-16 BE, 17-31 RT.
  const PriorityLayout l;
  EXPECT_EQ(l.field_bits, 5u);
  EXPECT_EQ(l.max_level(), 31);
  EXPECT_EQ(l.nothing(), 0);
  EXPECT_EQ(l.non_real_time(), 1);
  EXPECT_EQ(l.best_effort_lo(), 2);
  EXPECT_EQ(l.best_effort_hi(), 16);
  EXPECT_EQ(l.real_time_lo(), 17);
  EXPECT_EQ(l.real_time_hi(), 31);
}

TEST(PriorityLayout, ClassBandsOrdered) {
  // RT always outranks BE, which always outranks NRT (paper §3).
  const PriorityLayout l;
  EXPECT_GT(l.class_lo(TrafficClass::kRealTime),
            l.class_hi(TrafficClass::kBestEffort));
  EXPECT_GT(l.class_lo(TrafficClass::kBestEffort),
            l.class_hi(TrafficClass::kNonRealTime));
  EXPECT_GT(l.class_lo(TrafficClass::kNonRealTime), l.nothing());
}

TEST(PriorityLayout, EightBitVariant) {
  PriorityLayout l;
  l.field_bits = 8;
  l.validate();
  EXPECT_EQ(l.max_level(), 255);
  EXPECT_EQ(l.best_effort_hi(), 128);
  EXPECT_EQ(l.real_time_lo(), 129);
  EXPECT_EQ(l.real_time_hi(), 255);
}

TEST(PriorityLayout, ValidatesWidth) {
  PriorityLayout l;
  l.field_bits = 2;
  EXPECT_THROW(l.validate(), ConfigError);
  l.field_bits = 9;
  EXPECT_THROW(l.validate(), ConfigError);
}

/// The paper's logarithmic mapping (linear quantum 0).
Priority log_map(const PriorityLayout& l, TrafficClass cls,
                 std::int64_t laxity) {
  return map_laxity(l, cls, laxity, 0);
}

TEST(LogarithmicMapper, ZeroLaxityIsMaxUrgency) {
  const PriorityLayout l;
  EXPECT_EQ(log_map(l, TrafficClass::kRealTime, 0), l.real_time_hi());
  EXPECT_EQ(log_map(l, TrafficClass::kBestEffort, 0), l.best_effort_hi());
}

TEST(LogarithmicMapper, NegativeLaxityClampsToMax) {
  const PriorityLayout l;
  EXPECT_EQ(log_map(l, TrafficClass::kRealTime, -100), l.real_time_hi());
}

TEST(LogarithmicMapper, OneLevelPerDoubling) {
  const PriorityLayout l;
  const Priority top = l.real_time_hi();
  EXPECT_EQ(log_map(l, TrafficClass::kRealTime, 1), top - 1);
  EXPECT_EQ(log_map(l, TrafficClass::kRealTime, 2), top - 1);
  EXPECT_EQ(log_map(l, TrafficClass::kRealTime, 3), top - 2);
  EXPECT_EQ(log_map(l, TrafficClass::kRealTime, 6), top - 2);
  EXPECT_EQ(log_map(l, TrafficClass::kRealTime, 7), top - 3);
  EXPECT_EQ(log_map(l, TrafficClass::kRealTime, 14), top - 3);
  EXPECT_EQ(log_map(l, TrafficClass::kRealTime, 15), top - 4);
}

TEST(LogarithmicMapper, MonotonicallyNonIncreasingInLaxity) {
  const PriorityLayout l;
  Priority prev = l.real_time_hi();
  for (std::int64_t laxity = 0; laxity < 100'000; laxity += 7) {
    const Priority p = log_map(l, TrafficClass::kRealTime, laxity);
    EXPECT_LE(p, prev);
    prev = p;
  }
}

TEST(LogarithmicMapper, SaturatesAtClassFloor) {
  const PriorityLayout l;
  EXPECT_EQ(log_map(l, TrafficClass::kRealTime, INT64_MAX / 4),
            l.real_time_lo());
  EXPECT_EQ(log_map(l, TrafficClass::kBestEffort, INT64_MAX / 4),
            l.best_effort_lo());
}

TEST(LogarithmicMapper, NeverReturnsReservedZero) {
  const PriorityLayout l;
  for (std::int64_t laxity : {0L, 1L, 100L, 1L << 40}) {
    for (auto cls : {TrafficClass::kRealTime, TrafficClass::kBestEffort,
                     TrafficClass::kNonRealTime}) {
      EXPECT_GT(log_map(l, cls, laxity), 0);
    }
  }
}

TEST(LogarithmicMapper, NrtAlwaysLevelOne) {
  const PriorityLayout l;
  EXPECT_EQ(log_map(l, TrafficClass::kNonRealTime, 0), 1);
  EXPECT_EQ(log_map(l, TrafficClass::kNonRealTime, 1'000'000), 1);
}

TEST(LogarithmicMapper, FinestResolutionNearDeadline) {
  // Levels consumed over laxity [0,16) must exceed those over [16,32):
  // the logarithmic map spends its resolution close to the deadline.
  const PriorityLayout l;
  const int near = log_map(l, TrafficClass::kRealTime, 0) -
                   log_map(l, TrafficClass::kRealTime, 15);
  const int far = log_map(l, TrafficClass::kRealTime, 16) -
                  log_map(l, TrafficClass::kRealTime, 31);
  EXPECT_GT(near, far);
}

TEST(LinearMapper, QuantumSteps) {
  const PriorityLayout l;
  const Priority top = l.real_time_hi();
  EXPECT_EQ(map_laxity(l, TrafficClass::kRealTime, 0, 10), top);
  EXPECT_EQ(map_laxity(l, TrafficClass::kRealTime, 9, 10), top);
  EXPECT_EQ(map_laxity(l, TrafficClass::kRealTime, 10, 10), top - 1);
  EXPECT_EQ(map_laxity(l, TrafficClass::kRealTime, 25, 10), top - 2);
}

TEST(LinearMapper, RejectsNonPositiveQuantum) {
  // No non-positive value selects a linear quantum: the network rejects
  // a negative one, and 0 is the logarithmic mapping.
  net::NetworkConfig cfg;
  cfg.nodes = 4;
  cfg.linear_quantum_slots = -5;
  EXPECT_THROW(net::Network{cfg}, ConfigError);
  cfg.linear_quantum_slots = 0;
  EXPECT_NO_THROW(net::Network{cfg});
  const PriorityLayout l;
  for (std::int64_t laxity : {0L, 5L, 100L}) {
    EXPECT_EQ(map_laxity(l, TrafficClass::kRealTime, laxity, 0),
              log_map(l, TrafficClass::kRealTime, laxity));
  }
}

}  // namespace
}  // namespace ccredf::core
