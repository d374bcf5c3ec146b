// The admission ledger against the connection table.  The controller
// keeps only the sum of Eq. 5 over the accepted set; the network's
// connection table is the one per-id record.  After every step of a
// seeded sequence of RT opens (some admitted through the planner's
// constructive proof past U_max, some refused by it), CBS opens, closes
// of open, closed and never-issued ids, and short slot runs, the sum
// must equal the weights of the ids the network lists as open, and a
// close that fails must leave it untouched to the last bit.
#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "sim/rng.hpp"

namespace ccredf::net {
namespace {

constexpr NodeId kNodes = 16;
constexpr double kTolerance = 1e-12;

/// Summed admission weight of every open RT connection and CBS server.
double listed_weight(const Network& n) {
  double sum = 0.0;
  for (NodeId src = 0; src < kNodes; ++src) {
    for (const auto& c : n.connections_of(src)) {
      sum += n.admission().weight(c.params);
    }
    for (const auto& s : n.cbs_servers_of(src)) {
      sum += n.admission().weight(s.params.admission_params());
    }
  }
  return sum;
}

NodeId random_node(sim::Rng& rng) {
  return static_cast<NodeId>(rng.uniform_u64(kNodes));
}

/// A short-hop periodic connection: spatial reuse lets the planner admit
/// sets of them past the per-slot bound.  Periods 8, 16 and 32 keep the
/// hyperperiod small.
core::ConnectionParams random_rt(sim::Rng& rng) {
  core::ConnectionParams c;
  c.source = random_node(rng);
  const auto hops = static_cast<NodeId>(1 + rng.uniform_u64(3));
  c.dests = NodeSet::single(static_cast<NodeId>((c.source + hops) % kNodes));
  c.period_slots = std::int64_t{8} << rng.uniform_u64(3);
  c.size_slots = 1 + static_cast<std::int64_t>(rng.uniform_u64(2));
  c.offset_slots =
      static_cast<std::int64_t>(rng.uniform_u64(
          static_cast<std::uint64_t>(c.period_slots)));
  return c;
}

core::CbsParams random_cbs(sim::Rng& rng) {
  core::CbsParams p;
  p.source = random_node(rng);
  const auto hops = static_cast<NodeId>(1 + rng.uniform_u64(kNodes - 1));
  p.dests = NodeSet::single(static_cast<NodeId>((p.source + hops) % kNodes));
  p.period_slots = 20 + static_cast<std::int64_t>(rng.uniform_u64(80));
  p.budget_slots = 1 + static_cast<std::int64_t>(rng.uniform_u64(3));
  return p;
}

struct Tally {
  int planner_admits = 0;  // admitted although Eq. 5 alone refuses
  int cbs_opens = 0;
  int open_closes = 0;
  int closed_closes = 0;
  int never_issued_closes = 0;
};

void run_sequence(std::uint64_t seed, Tally& tally) {
  NetworkConfig cfg;
  cfg.nodes = kNodes;
  cfg.planner = true;
  cfg.record_inboxes = false;
  Network n(cfg);
  sim::Rng rng(seed);
  std::vector<ConnectionId> open;
  std::vector<ConnectionId> closed;
  ConnectionId highest = 0;

  const auto check = [&](const std::string& step) {
    EXPECT_NEAR(n.admission().utilisation(), listed_weight(n), kTolerance)
        << "seed " << seed << ", " << step;
  };
  const auto open_rt = [&] {
    const core::ConnectionParams c = random_rt(rng);
    const bool past_bound = n.admission().utilisation() +
                                n.admission().weight(c) >
                            n.admission().effective_u_max() + kTolerance;
    const Network::OpenResult r = n.open_connection(c);
    if (!r.admitted) return;
    if (past_bound) ++tally.planner_admits;
    open.push_back(r.id);
    highest = std::max(highest, r.id);
  };
  const auto refused_close = [&](ConnectionId id) {
    const double before = n.admission().utilisation();
    EXPECT_FALSE(n.close_connection(id)) << "seed " << seed << ", id " << id;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(n.admission().utilisation()),
              std::bit_cast<std::uint64_t>(before))
        << "seed " << seed << ", id " << id;
  };

  // A clean ring first: every open past the bound goes through the
  // planner, which proves some of them feasible.
  for (int i = 0; i < 24; ++i) {
    open_rt();
    check("initial RT open " + std::to_string(i));
  }
  for (int step = 0; step < 200; ++step) {
    switch (rng.uniform_u64(6)) {
      case 0:
        open_rt();
        break;
      case 1: {
        const Network::OpenResult r = n.open_cbs_server(random_cbs(rng));
        if (r.admitted) {
          ++tally.cbs_opens;
          open.push_back(r.id);
          highest = std::max(highest, r.id);
        }
        break;
      }
      case 2:
        if (!open.empty()) {
          const std::size_t k = rng.uniform_u64(open.size());
          const ConnectionId id = open[k];
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(k));
          EXPECT_TRUE(n.close_connection(id)) << "seed " << seed;
          closed.push_back(id);
          ++tally.open_closes;
        }
        break;
      case 3:
        if (!closed.empty()) {
          refused_close(closed[rng.uniform_u64(closed.size())]);
          ++tally.closed_closes;
        }
        break;
      case 4: {
        // Ids 0 and kNoConnection are never handed out, and a sequence
        // draws far fewer than 1,000 ids past the highest one admitted.
        const ConnectionId never[] = {
            0, kNoConnection,
            static_cast<ConnectionId>(highest + 1000 +
                                      rng.uniform_u64(1000))};
        refused_close(never[rng.uniform_u64(3)]);
        ++tally.never_issued_closes;
        break;
      }
      default:
        n.run_slots(1 + static_cast<std::int64_t>(rng.uniform_u64(12)));
        break;
    }
    check("step " + std::to_string(step));
  }
}

TEST(AdmissionLedger, UtilisationIsTheSumOverTheConnectionTable) {
  Tally tally;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) run_sequence(seed, tally);
  // Every kind of step ran.
  EXPECT_GT(tally.planner_admits, 0);
  EXPECT_GT(tally.cbs_opens, 0);
  EXPECT_GT(tally.open_closes, 0);
  EXPECT_GT(tally.closed_closes, 0);
  EXPECT_GT(tally.never_issued_closes, 0);
}

}  // namespace
}  // namespace ccredf::net
