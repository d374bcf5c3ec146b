// The multimedia scenario end-to-end: streams admitted, background load
// running, all stream deadlines met -- mirrors the multimedia_lan example
// as an assertion-carrying test.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "workload/multimedia.hpp"
#include "workload/poisson.hpp"

namespace ccredf {
namespace {

using core::TrafficClass;

TEST(MultimediaRun, StreamsMeetDeadlinesUnderBackgroundLoad) {
  const auto scenario =
      workload::make_multimedia_scenario(workload::MultimediaParams{});
  net::NetworkConfig cfg;
  cfg.nodes = 8;
  net::Network n(cfg);
  int admitted = 0;
  for (const auto& c : scenario.connections) {
    if (n.open_connection(c).admitted) ++admitted;
  }
  EXPECT_EQ(admitted, static_cast<int>(scenario.connections.size()));

  workload::PoissonGenerator bg(
      n, scenario.background,
      sim::TimePoint::origin() + n.timing().slot() * 5000);
  n.run_slots(6000);

  const auto& rt = n.stats().cls(TrafficClass::kRealTime);
  EXPECT_GT(rt.delivered, 100);
  EXPECT_EQ(rt.user_misses, 0);
}

}  // namespace
}  // namespace ccredf
