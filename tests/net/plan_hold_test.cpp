// Held planned messages (DESIGN.md section 13, PROTOCOL.md section 8):
// while a hypercycle plan drives the ring, its released messages stay
// with their connections outside the EDF queues, and they join the
// queues at the first slot the collection phase decides again.  These
// tests pin that the bypass is one (the queues stay empty while the
// plan drives) and that every way out of the plan -- from an event
// inside a planned slot or from a call between runs -- reproduces the
// statistics of an engine that queued the planned messages all along.
#include <array>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "net/network.hpp"

namespace ccredf::net {
namespace {

using core::ConnectionParams;
using core::TrafficClass;

NetworkConfig cfg8() {
  NetworkConfig cfg;
  cfg.nodes = 8;
  cfg.planner = true;
  cfg.record_inboxes = false;
  // Small enough that a burst of sends meets the held messages in the
  // tail-drop check.
  cfg.max_queue_messages = 2;
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

/// Set 0: two 1-slot 1-hop streams per node, utilisation 2.0 (planner
/// admission past U_max).  Sets 1-3: offset streams of e = 1, 2, 3
/// slots with mixed periods and two streams on node 0, so a divergence
/// can land on a partly sent message.
std::vector<ConnectionParams> plan_set(int set) {
  std::vector<ConnectionParams> v;
  if (set == 0) {
    for (NodeId i = 0; i < 8; ++i) {
      v.push_back(conn(i, static_cast<NodeId>((i + 1) % 8), 1, 8));
      v.push_back(conn(i, static_cast<NodeId>((i + 1) % 8), 1, 8));
    }
    return v;
  }
  const std::int64_t e = set;
  v.push_back(conn(0, 1, e, 16, 3));
  v.push_back(conn(2, 4, e, 16));
  v.push_back(conn(5, 6, e, 24, 7));
  v.push_back(conn(0, 2, e, 24, 9));
  return v;
}

/// Hexfloat statistics fingerprint: counters, per-node requests and
/// grants, class and per-connection latency, planner and fault counters.
std::string fingerprint(const Network& n,
                        const std::vector<ConnectionId>& ids) {
  const NetworkStats& st = n.stats();
  std::ostringstream os;
  os << std::hexfloat;
  os << st.slots << ' ' << st.busy_slots << ' ' << st.total_grants << ' '
     << st.reuse_slots << ' ' << st.wasted_grants << ' ' << st.buffer_drops
     << ' ' << st.priority_inversions << ' ' << st.planned_slots << ' '
     << st.plan_wait_slots << ' ' << st.plan_builds << ' '
     << st.plan_divergences << '\n';
  os << st.gap.sum_exact() << ' ' << st.gap.variance() << ' '
     << st.handover_hops.sum_exact() << ' ' << st.time_in_slots.ps() << ' '
     << st.time_in_gaps.ps() << '\n';
  for (NodeId j = 0; j < n.nodes(); ++j) {
    os << st.node_requests[j] << ' ' << st.node_grants[j] << ' ';
  }
  os << '\n';
  for (const auto cls : {TrafficClass::kRealTime, TrafficClass::kBestEffort,
                         TrafficClass::kNonRealTime}) {
    const ClassStats& c = st.cls(cls);
    os << c.delivered << ' ' << c.scheduling_misses << ' ' << c.user_misses
       << ' ' << c.bytes << ' ' << c.latency.mean() << ' '
       << c.latency.variance() << ' ' << c.latency.max() << '\n';
  }
  for (const ConnectionId id : ids) {
    const ConnectionStats& cs = n.connection_stats(id);
    os << id << ':' << cs.released << ' ' << cs.delivered << ' '
       << cs.scheduling_misses << ' ' << cs.latency.mean() << ' '
       << cs.latency.max() << '\n';
  }
  os << st.faults.link_cuts << ' ' << st.faults.cut_detect_slots << ' '
     << st.faults.ring_dark << ' ' << st.faults.token_losses << ' '
     << n.queued_nodes().mask() << ' ' << n.plan_valid() << ' '
     << n.plan_engaged() << ' ' << n.sim().events_fired() << '\n';
  return os.str();
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

enum class Trigger {
  kBestEffort,
  kNonRealTime,
  kFailNode,
  kCutLink,
  kClose,
  kOpen,
  kFaultHook,
};
constexpr std::array kTriggers = {
    Trigger::kBestEffort, Trigger::kNonRealTime, Trigger::kFailNode,
    Trigger::kCutLink,    Trigger::kClose,       Trigger::kOpen,
    Trigger::kFaultHook};
constexpr std::array<const char*, kTriggers.size()> kTriggerNames = {
    "best-effort send", "non-real-time send", "fail_node", "cut_link",
    "close_connection", "open_connection",    "fault hook"};

/// Runs one case: plan set `set` engaged for `at` slots, then `trigger`
/// fires -- from an event inside the next (planned) slot, or as a call
/// between two run_slots -- and the ring runs on for 300 slots.
std::string run_case(Trigger trigger, bool from_event, int set,
                     std::int64_t at) {
  Network n(cfg8());
  std::optional<fault::FaultInjector> inj;
  std::vector<ConnectionId> ids;
  for (const ConnectionParams& c : plan_set(set)) {
    const auto r = n.open_connection(c);
    EXPECT_TRUE(r.admitted);
    ids.push_back(r.id);
  }
  n.run_slots(at);
  EXPECT_TRUE(n.plan_engaged());
  const auto fire = [&] {
    switch (trigger) {
      case Trigger::kBestEffort:
      case Trigger::kNonRealTime:
        // Bursts at sources that hold planned messages.
        for (const NodeId s : {NodeId{0}, NodeId{2}, NodeId{5}}) {
          for (int k = 0; k < 2; ++k) {
            const NodeSet d = NodeSet::single((s + 3) % 8);
            if (trigger == Trigger::kBestEffort) {
              (void)n.send_best_effort(s, d, 2, n.slot_duration() * 40);
            } else {
              (void)n.send_non_realtime(s, d, 2);
            }
          }
        }
        break;
      case Trigger::kFailNode:
        (void)n.fail_node(0);
        break;
      case Trigger::kCutLink:
        (void)n.cut_link(3);
        break;
      case Trigger::kClose:
        (void)n.close_connection(ids.front());
        break;
      case Trigger::kOpen: {
        const auto r = n.open_connection(conn(3, 4, 1, 16));
        if (r.admitted) ids.push_back(r.id);
        break;
      }
      case Trigger::kFaultHook:
        inj.emplace(n, 11);
        break;
    }
  };
  if (from_event) {
    n.sim().schedule_at(n.sim().now() + n.slot_duration(), fire);
  } else {
    fire();
  }
  n.run_slots(300);
  return fingerprint(n, ids);
}

/// FNV-1a-64 over the fingerprints of one trigger and timing: the four
/// plan sets, five trigger instants each (20 cases).  Captured from the
/// engine that queued planned messages in the EDF queues.
struct Expected {
  std::uint64_t from_event;
  std::uint64_t between_runs;
};
constexpr std::array<Expected, kTriggers.size()> kExpected = {{
    {0xa3b13f9d64043168ull, 0x5c746ae2945c85deull},  // best-effort send
    {0xfd91924951505c7eull, 0xa942e2dc994434b6ull},  // non-real-time send
    {0xda5877133161eaf7ull, 0x9d7b3bc040cd3217ull},  // fail_node
    {0x65a8cf63655bf81aull, 0x1d685ccb4a1afce0ull},  // cut_link
    {0x5ee9340cdb9c7fc4ull, 0x13ac68fd1565daadull},  // close_connection
    {0xa7e85be8aea460a8ull, 0xacea5b457389c28dull},  // open_connection
    {0xe6b7d865686092b5ull, 0xe0b894f69025e147ull},  // fault hook
}};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(PlanHold, DivergenceMatrixMatchesQueuedEngine) {
  for (std::size_t t = 0; t < kTriggers.size(); ++t) {
    for (const bool from_event : {true, false}) {
      std::uint64_t h = 0xcbf29ce484222325ull;
      for (int set = 0; set < 4; ++set) {
        for (const std::int64_t at : {40, 41, 43, 46, 50}) {
          h = fnv1a(h, run_case(kTriggers[t], from_event, set, at));
        }
      }
      const Expected& e = kExpected[t];
      EXPECT_EQ(hex(h), hex(from_event ? e.from_event : e.between_runs))
          << kTriggerNames[t]
          << (from_event ? ", from an event inside a planned slot"
                         : ", as a call between runs");
    }
  }
}

TEST(PlanHold, PlannedMessagesBypassTheEdfQueues) {
  Network n(cfg8());
  std::vector<ConnectionId> ids;
  std::vector<NodeId> source;
  for (const ConnectionParams& c : plan_set(0)) {
    ids.push_back(n.open_connection(c).id);
    source.push_back(c.source);
  }
  ASSERT_TRUE(n.plan_engaged());
  // Released minus delivered RT messages per node: what the plan holds.
  const auto outstanding = [&](NodeId j) {
    std::int64_t k = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const ConnectionStats& cs = n.connection_stats(ids[i]);
      if (source[i] == j) k += cs.released - cs.delivered;
    }
    return k;
  };
  std::int64_t engaged_slots = 0;
  bool diverged = false;
  bool first_collection_checked = false;
  n.add_slot_observer([&](const SlotRecord&) {
    if (n.plan_engaged()) {
      ++engaged_slots;
      NodeSet holding;
      for (NodeId j = 0; j < n.nodes(); ++j) {
        EXPECT_TRUE(n.node(j).queues().empty()) << "node " << j;
        if (outstanding(j) > 0) holding.insert(j);
      }
      EXPECT_EQ(n.queued_nodes(), holding);
      return;
    }
    if (!diverged || first_collection_checked) return;
    // The first slot the collection phase decided: every held message
    // sits in its source's RT queue.
    first_collection_checked = true;
    for (NodeId j = 0; j < n.nodes(); ++j) {
      EXPECT_EQ(static_cast<std::int64_t>(
                    n.node(j).queues().size_of(TrafficClass::kRealTime)),
                outstanding(j))
          << "node " << j;
    }
  });
  n.run_slots(2'000);
  EXPECT_EQ(engaged_slots, 2'000);
  (void)n.send_non_realtime(3, NodeSet::single(4), 1);
  diverged = true;
  ASSERT_FALSE(n.plan_engaged());
  n.run_slots(10);
  EXPECT_TRUE(first_collection_checked);
  EXPECT_EQ(n.stats().cls(TrafficClass::kRealTime).user_misses, 0);
}

}  // namespace
}  // namespace ccredf::net
