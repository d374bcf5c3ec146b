// Link cut/splice events through the injector: they land at their
// instants, repeat idempotently, and same-timestamp events fire in
// scheduling order.
#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace ccredf::fault {
namespace {

using sim::Duration;
using sim::TimePoint;

net::NetworkConfig cfg6() {
  net::NetworkConfig cfg;
  cfg.nodes = 6;
  return cfg;
}

TEST(LinkEvent, ScheduledCutAndSpliceTakeEffectAtTheirInstants) {
  net::Network n(cfg6());
  FaultInjector inj(n);
  const Duration extent = n.timing().slot_plus_max_gap();
  // Wall-clock instants (idle slots pace tighter than the max-gap
  // extent, so generous slot counts bracket each instant).
  inj.schedule_link_cut(2, TimePoint::origin() + extent * 5);
  inj.schedule_link_splice(2, TimePoint::origin() + extent * 15);
  n.run_slots(4);
  EXPECT_TRUE(n.severed_links().empty());  // cut instant not reached yet
  n.run_slots(6);
  EXPECT_TRUE(n.severed_links().contains(2));
  n.run_slots(20);
  EXPECT_TRUE(n.severed_links().empty());
  EXPECT_EQ(n.stats().faults.link_cuts, 1);
}

TEST(LinkEvent, DoubleCutThroughSchedulerIsIdempotent) {
  net::Network n(cfg6());
  FaultInjector inj(n);
  const TimePoint t = TimePoint::origin() + Duration::microseconds(5);
  inj.schedule_link_cut(1, t);
  inj.schedule_link_cut(1, t + Duration::microseconds(1));
  inj.schedule_link_splice(4, t);  // splice-of-intact: no-op
  n.run_slots(30);
  EXPECT_TRUE(n.severed_links().contains(1));
  EXPECT_EQ(n.stats().faults.link_cuts, 1);
  EXPECT_TRUE(n.splice_link(1));  // one splice undoes both cuts
  EXPECT_TRUE(n.severed_links().empty());
}

TEST(LinkEvent, SameTimestampLastScheduledActionWins) {
  // Same contract as node fail/restore: equal timestamps fire in
  // scheduling order, so the LAST scheduled action decides the link's
  // state after the instant.
  const TimePoint t = TimePoint::origin() + Duration::microseconds(10);
  {
    net::Network n(cfg6());
    FaultInjector inj(n);
    inj.schedule_link_cut(3, t);
    inj.schedule_link_splice(3, t);  // cut fires first, splice last
    n.run_slots(20);
    EXPECT_TRUE(n.severed_links().empty());
  }
  {
    net::Network n(cfg6());
    ASSERT_TRUE(n.cut_link(3));
    FaultInjector inj(n);
    inj.schedule_link_splice(3, t);
    inj.schedule_link_cut(3, t);  // splice fires first, cut last
    n.run_slots(20);
    EXPECT_TRUE(n.severed_links().contains(3));
  }
}

}  // namespace
}  // namespace ccredf::fault
