#include "net/node.hpp"

#include <gtest/gtest.h>

namespace ccredf::net {
namespace {

core::Delivery make_delivery(MessageId id, NodeId src) {
  core::Delivery d;
  d.id = id;
  d.source = src;
  d.dests = NodeSet::single(1);
  return d;
}

TEST(Node, IdAndInitialState) {
  Node n(3);
  EXPECT_EQ(n.id(), 3u);
  EXPECT_TRUE(n.inbox().empty());
  EXPECT_TRUE(n.queues().empty());
}

TEST(Node, DeliverAppendsToInbox) {
  Node n(1);
  n.deliver(make_delivery(10, 0));
  n.deliver(make_delivery(11, 2));
  ASSERT_EQ(n.inbox().size(), 2u);
  EXPECT_EQ(n.inbox()[0].id, 10u);
  EXPECT_EQ(n.inbox()[1].id, 11u);
}

TEST(Node, ClearInbox) {
  Node n(1);
  n.deliver(make_delivery(10, 0));
  n.clear_inbox();
  EXPECT_TRUE(n.inbox().empty());
}

}  // namespace
}  // namespace ccredf::net
