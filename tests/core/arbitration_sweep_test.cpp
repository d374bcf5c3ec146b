// Parameterised arbitration sweep: the Arbiter's safety and liveness
// invariants across priority-field widths, ring sizes and reuse modes.
#include <gtest/gtest.h>

#include <tuple>

#include "core/arbitration.hpp"
#include "core/priority.hpp"
#include "ring/segment.hpp"
#include "sim/rng.hpp"

namespace ccredf::core {
namespace {

using Param = std::tuple<NodeId /*nodes*/, unsigned /*field bits*/,
                         bool /*reuse*/, std::uint64_t /*seed*/>;

class ArbitrationSweep : public ::testing::TestWithParam<Param> {};

TEST_P(ArbitrationSweep, SafetyAndLivenessInvariants) {
  const auto [nodes, bits, reuse, seed] = GetParam();
  const ring::RingTopology topo(nodes);
  const Arbiter arb(topo, reuse);
  PriorityLayout layout;
  layout.field_bits = bits;
  layout.validate();
  sim::Rng rng(seed);

  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Request> reqs(nodes);
    for (NodeId i = 0; i < nodes; ++i) {
      if (rng.bernoulli(0.35)) continue;
      NodeId dst;
      do {
        dst = static_cast<NodeId>(rng.uniform_u64(nodes));
      } while (dst == i);
      const auto cls = rng.bernoulli(0.5) ? TrafficClass::kRealTime
                                          : TrafficClass::kBestEffort;
      const auto laxity =
          static_cast<std::int64_t>(rng.uniform_u64(10'000));
      const auto seg =
          ring::Segment::for_transmission(topo, i, NodeSet::single(dst));
      reqs[i].priority = map_laxity(layout, cls, laxity, 0);
      reqs[i].links = seg.links();
      reqs[i].dests = NodeSet::single(dst);
    }
    const auto master = static_cast<NodeId>(rng.uniform_u64(nodes));
    const auto r = arb.arbitrate(reqs, master);

    // Safety: disjoint grants, none across the break link, grant count
    // matches, every grant was a wanting request.
    LinkSet taken;
    int count = 0;
    for (const NodeId g : r.packet.granted) {
      ASSERT_TRUE(reqs[g].wants_slot());
      ASSERT_FALSE(reqs[g].links.intersects(taken));
      ASSERT_FALSE(
          reqs[g].links.contains(topo.break_link(r.next_master)));
      taken |= reqs[g].links;
      ++count;
    }
    ASSERT_EQ(count, r.granted_count);
    ASSERT_EQ(taken, r.granted_links);
    if (!reuse) {
      ASSERT_LE(count, 1);
    }

    // Liveness: some wanting request => the top one is granted and is
    // the next master; no requests => master unchanged, nothing granted.
    NodeId hp = kInvalidNode;
    Priority best = 0;
    for (NodeId i = 0; i < nodes; ++i) {
      if (reqs[i].priority > best) {
        best = reqs[i].priority;
        hp = i;
      }
    }
    if (hp == kInvalidNode) {
      ASSERT_EQ(r.next_master, master);
      ASSERT_EQ(r.granted_count, 0);
    } else {
      ASSERT_EQ(r.next_master, hp);
      ASSERT_TRUE(r.packet.granted.contains(hp));
      ASSERT_GE(r.granted_count, 1);
    }

    // Greedy maximality under reuse: no denied wanting request could
    // still be granted legally.
    if (reuse) {
      for (NodeId i = 0; i < nodes; ++i) {
        if (!reqs[i].wants_slot() || r.packet.granted.contains(i)) continue;
        const bool could_fit =
            !reqs[i].links.intersects(r.granted_links) &&
            !reqs[i].links.contains(topo.break_link(r.next_master));
        ASSERT_FALSE(could_fit)
            << "node " << i << " was deniable but grantable";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ArbitrationSweep,
    ::testing::Combine(::testing::Values<NodeId>(3, 8, 17, 64),
                       ::testing::Values(3u, 5u, 8u),
                       ::testing::Bool(),
                       ::testing::Values<std::uint64_t>(1, 2)));

}  // namespace
}  // namespace ccredf::core
