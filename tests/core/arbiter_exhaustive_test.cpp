// Exhaustive check of the slot decision at small N.  The arbiter is
// compared with a brute-force reading of paper §3 on every unicast
// request pattern of rings with 2 to 5 nodes: each node idle or sending
// to any other node at one of three priority levels, under every current
// master, with spatial reuse on and off.  At these sizes exhaustion is a
// proof, not a sample.
#include "core/arbitration.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "ring/segment.hpp"

namespace ccredf::core {
namespace {

constexpr NodeId kMaxN = 5;
constexpr std::array<Priority, 3> kLevels = {1, 2, 3};

/// The links a transfer from `src` to `dst` occupies, walked hop by hop:
/// link i leaves node i.
LinkSet walk(NodeId n, NodeId src, NodeId dst) {
  LinkSet links;
  for (NodeId at = src; at != dst; at = (at + 1) % n) links.insert(at);
  return links;
}

struct Decision {
  NodeSet granted;
  NodeId next_master = kInvalidNode;
  LinkSet links;
};

/// Paper §3 as plainly as it reads.  The requesters sort by priority,
/// highest first, lower index breaking ties.  With no requester the
/// current master keeps the clock and nobody is granted.  Otherwise the
/// top requester becomes the next master, and requests are granted in
/// sort order when their links are disjoint from those already taken and
/// avoid the link into the next master, where the clock breaks.  Without
/// spatial reuse only the top requester is granted.
Decision spec(const std::vector<Request>& rq, NodeId current, bool reuse) {
  const auto n = static_cast<NodeId>(rq.size());
  NodeSet left;
  for (NodeId i = 0; i < n; ++i) {
    if (rq[i].priority != 0) left.insert(i);
  }
  // Selection by brute force: the first of the highest priority left.
  std::array<NodeId, kMaxN> order{};
  std::size_t count = 0;
  while (!left.empty()) {
    NodeId best = left.lowest();
    for (const NodeId i : left) {
      if (rq[i].priority > rq[best].priority) best = i;
    }
    order[count++] = best;
    left.erase(best);
  }
  Decision d;
  if (count == 0) {
    d.next_master = current;
    return d;
  }
  d.next_master = order[0];
  const LinkId into_master = (d.next_master + n - 1) % n;
  for (std::size_t k = 0; k < (reuse ? count : 1); ++k) {
    const Request& r = rq[order[k]];
    if (r.links.intersects(d.links) || r.links.contains(into_master)) continue;
    d.links |= r.links;
    d.granted.insert(order[k]);
  }
  return d;
}

std::string describe(const std::vector<Request>& rq, NodeId current,
                     bool reuse, const char* overload) {
  std::ostringstream os;
  os << overload << " N=" << rq.size() << " master=" << current
     << " reuse=" << reuse << " requests:";
  for (NodeId i = 0; i < rq.size(); ++i) {
    os << ' ' << i << ':' << int{rq[i].priority} << '/' << std::hex
       << rq[i].dests.mask() << std::dec;
  }
  return os.str();
}

TEST(ArbiterExhaustive, SegmentLinksMatchTheHopWalk) {
  for (NodeId n = 2; n <= 8; ++n) {
    const ring::RingTopology topo(n);
    for (NodeId src = 0; src < n; ++src) {
      for (NodeId dst = 0; dst < n; ++dst) {
        if (dst == src) continue;
        const auto seg = ring::Segment::for_transmission(
            topo, src, NodeSet::single(dst));
        EXPECT_EQ(seg.links().mask(), walk(n, src, dst).mask())
            << "N=" << n << " " << src << "->" << dst;
      }
    }
  }
}

TEST(ArbiterExhaustive, EveryUnicastPatternMatchesTheSpec) {
  std::int64_t calls = 0;
  std::int64_t mismatches = 0;
  std::string first;
  const auto check = [&](const ArbitrationResult& got, const Decision& want,
                         const std::vector<Request>& rq, NodeId current,
                         bool reuse, const char* overload) {
    ++calls;
    if (got.packet.granted == want.granted &&
        got.granted_count == want.granted.size() &&
        got.next_master == want.next_master &&
        got.packet.hp_node == want.next_master &&
        got.granted_links == want.links) {
      return;
    }
    if (mismatches++ == 0) first = describe(rq, current, reuse, overload);
  };

  for (NodeId n = 2; n <= kMaxN; ++n) {
    const ring::RingTopology topo(n);
    const Arbiter with_reuse(topo, true);
    const Arbiter without_reuse(topo, false);
    // A node's choice c: 0 is idle; c - 1 = level * (n - 1) + k sends to
    // the (k + 1)-th node downstream at kLevels[level].
    const auto choices = static_cast<NodeId>(1 + kLevels.size() * (n - 1));
    std::int64_t patterns = 1;
    for (NodeId i = 0; i < n; ++i) patterns *= choices;

    std::vector<NodeId> choice(n, 0);
    std::vector<Request> rq(n);
    for (std::int64_t p = 0; p < patterns; ++p) {
      NodeSet requesters;
      for (NodeId i = 0; i < n; ++i) {
        rq[i] = Request{};
        if (choice[i] == 0) continue;
        const NodeId level = (choice[i] - 1) / (n - 1);
        const NodeId dst = (i + 1 + (choice[i] - 1) % (n - 1)) % n;
        rq[i].priority = kLevels[level];
        rq[i].links = walk(n, i, dst);
        rq[i].dests = NodeSet::single(dst);
        requesters.insert(i);
      }
      for (NodeId current = 0; current < n; ++current) {
        for (const bool reuse : {true, false}) {
          const Arbiter& arb = reuse ? with_reuse : without_reuse;
          const Decision want = spec(rq, current, reuse);
          check(arb.arbitrate(rq, current), want, rq, current, reuse,
                "full scan");
          check(arb.arbitrate(rq, current, requesters), want, rq, current,
                reuse, "candidates");
        }
      }
      // Next pattern: a mixed-radix increment.
      for (NodeId i = 0; i < n && ++choice[i] == choices; ++i) choice[i] = 0;
    }
  }
  // The sum over N = 2..5 of (3N - 2)^N patterns x N masters x two reuse
  // modes x two overloads; 13^5 * 5 * 4 at N = 5 dominates.
  EXPECT_EQ(calls, 7'590'104);
  EXPECT_EQ(mismatches, 0) << "first mismatch: " << first;
}

}  // namespace
}  // namespace ccredf::core
