// Pins the per-link BER path: a ring whose control and data links each
// have their own bit-error rate.  No grid reaches the vector overloads
// of set_control_ber / set_data_ber, so this run is what holds their
// exposures (per writer and hop, per master, per source and span) to
// the values the per-call path products gave.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "support/stats_fingerprint.hpp"
#include "workload/periodic.hpp"
#include "workload/poisson.hpp"

namespace ccredf::fault {
namespace {

constexpr NodeId kNodes = 16;
constexpr std::int64_t kSlots = 20'000;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

TEST(PerLinkBer, UnequalLinkRatesArePinned) {
  net::NetworkConfig cfg;
  cfg.nodes = kNodes;
  cfg.with_acks = true;
  cfg.with_frame_crc = true;
  cfg.with_payload_crc = true;
  net::Network n(cfg);
  FaultInjector inj(n, /*seed=*/29);
  // Every link differs from its neighbours; link 3 is clean and link 12
  // has more than four times any other link's rate, so a record's
  // exposure depends on both where it is written and how far it rides.
  std::vector<double> control(kNodes);
  std::vector<double> data(kNodes);
  for (NodeId l = 0; l < kNodes; ++l) {
    control[l] = 2.5e-6 * (1 + (l * 7) % 9);
    data[l] = 2e-7 * (1 + (l * 5) % 11);
  }
  control[3] = 0.0;
  control[12] = 1e-4;
  data[8] = 0.0;
  inj.set_control_ber(control);
  inj.set_data_ber(data);

  workload::PeriodicSetParams wp;
  wp.nodes = kNodes;
  wp.connections = 16;
  wp.total_utilisation = 0.5 * n.admission().u_max();
  wp.seed = 17;
  for (const auto& c : workload::make_periodic_set(wp)) {
    (void)n.open_connection(c);
  }
  workload::PoissonParams pp;
  pp.rate_per_node = 0.02;
  pp.seed = 19;
  workload::PoissonGenerator gen(
      n, pp, sim::TimePoint::origin() + n.timing().slot() * kSlots);
  n.run_slots(kSlots);

  // Every classified outcome occurs, so every exposure table is read.
  const net::FaultStats& f = n.stats().faults;
  EXPECT_GT(f.collection_detected, 0);
  EXPECT_GT(f.distribution_detected, 0);
  EXPECT_GT(f.payload_detected, 0);

  // Captured from the engine that multiplied each path's link survival
  // rates on every call.
  EXPECT_EQ(inj.bits_flipped(), 2662);
  EXPECT_EQ(inj.data_bits_flipped(), 1694);
  EXPECT_EQ(hex(fnv1a(stats_fingerprint(n.stats()))), "0x79db74811fa6d305");
}

}  // namespace
}  // namespace ccredf::fault
