// Fast-forward equivalence: the engine's O(1) idle skip (DESIGN.md
// section 8) must be INVISIBLE in every observable statistic.  Each case
// runs the identical scenario twice -- NetworkConfig::fast_forward on
// and off -- and compares a full fingerprint of the run: every counter,
// every exact moment, every per-node / per-class / per-connection
// series, the fault ledger and the discrete-event count.  Doubles are
// printed as hexfloats, so a single flipped mantissa bit fails the test.
//
// Non-vacuousness is asserted too: the fast-forward run must actually
// have skipped slots, otherwise the equivalence would hold trivially.
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "support/stats_fingerprint.hpp"
#include "workload/multimedia.hpp"
#include "workload/periodic.hpp"
#include "workload/poisson.hpp"
#include "workload/radar.hpp"

namespace ccredf {
namespace {

struct RunResult {
  std::string fingerprint;
  std::int64_t skipped = 0;
};

/// Runs a periodic workload at `load` x U_max on `nodes` nodes.
RunResult run_periodic(NodeId nodes, double load, bool fast_forward,
                       std::int64_t slots) {
  net::NetworkConfig cfg;
  cfg.nodes = nodes;
  cfg.record_inboxes = false;
  cfg.fast_forward = fast_forward;
  net::Network n(cfg);
  workload::PeriodicSetParams wp;
  wp.nodes = nodes;
  wp.connections = static_cast<int>(nodes);
  wp.total_utilisation = load * n.timing().u_max();
  wp.seed = 42;
  for (const auto& c : workload::make_periodic_set(wp)) {
    (void)n.open_connection(c);
  }
  n.run_slots(slots);
  return {fingerprint(n), n.stats().ff_slots_skipped};
}

TEST(FastForward, PeriodicLoadsProduceIdenticalStatistics) {
  for (const double load : {0.3, 0.6, 0.9}) {
    SCOPED_TRACE(load);
    const RunResult ff = run_periodic(16, load, true, 10'000);
    const RunResult slow = run_periodic(16, load, false, 10'000);
    EXPECT_EQ(ff.fingerprint, slow.fingerprint);
    EXPECT_GT(ff.skipped, 0) << "fast-forward never engaged at this load";
    EXPECT_EQ(slow.skipped, 0);
  }
}

TEST(FastForward, RadarScenarioIsByteIdentical) {
  auto run = [](bool fast_forward) {
    const auto sc = workload::make_radar_scenario(workload::RadarParams{});
    net::NetworkConfig cfg;
    cfg.nodes = sc.nodes_required;
    cfg.fast_forward = fast_forward;
    net::Network n(cfg);
    for (const auto& c : sc.connections) (void)n.open_connection(c);
    n.run_slots(20'000);
    return RunResult{fingerprint(n), n.stats().ff_slots_skipped};
  };
  const RunResult ff = run(true);
  const RunResult slow = run(false);
  EXPECT_EQ(ff.fingerprint, slow.fingerprint);
  EXPECT_GT(ff.skipped, 0);
  EXPECT_EQ(slow.skipped, 0);
}

TEST(FastForward, MultimediaWithBackgroundIsByteIdentical) {
  auto run = [](bool fast_forward) {
    workload::MultimediaParams mp;
    const auto sc = workload::make_multimedia_scenario(mp);
    net::NetworkConfig cfg;
    cfg.nodes = mp.nodes;
    cfg.fast_forward = fast_forward;
    net::Network n(cfg);
    for (const auto& c : sc.connections) (void)n.open_connection(c);
    workload::PoissonParams pp = sc.background;
    pp.seed = 99;
    workload::PoissonGenerator gen(
        n, pp, sim::TimePoint::origin() + n.timing().slot() * 15'000);
    n.run_slots(20'000);
    return fingerprint(n);
  };
  EXPECT_EQ(run(true), run(false));
}

/// The hard case: every fault axis armed at once.  The skip decision
/// must replay the keyed fault draws exactly -- a single missed or
/// spuriously-taken idle fault desynchronises the ledger immediately.
TEST(FastForward, ArmedFaultAxesStayByteIdentical) {
  auto run = [](bool fast_forward) {
    net::NetworkConfig cfg;
    cfg.nodes = 16;
    cfg.record_inboxes = false;
    cfg.with_frame_crc = true;
    cfg.with_payload_crc = true;
    cfg.with_acks = true;
    cfg.fast_forward = fast_forward;
    net::Network n(cfg);
    fault::FaultInjector inj(n, 7);
    inj.set_control_ber(2e-6);
    inj.set_data_ber(1e-7);
    inj.set_random_token_loss(2e-4);
    inj.set_babbling_node(3, 5e-4);
    inj.schedule_token_loss(4'321);
    inj.schedule_collection_drop(2'000, 5);
    inj.schedule_distribution_corruption(6'500, 2);
    inj.schedule_node_failure(11, sim::TimePoint::origin() +
                                      n.timing().slot() * 3'000);
    inj.schedule_node_restore(11, sim::TimePoint::origin() +
                                      n.timing().slot() * 5'000);
    workload::PeriodicSetParams wp;
    wp.nodes = 16;
    wp.connections = 16;
    wp.total_utilisation = 0.3 * n.timing().u_max();
    wp.seed = 42;
    for (const auto& c : workload::make_periodic_set(wp)) {
      (void)n.open_connection(c);
    }
    n.run_slots(12'000);
    std::ostringstream os;
    os << fingerprint(n);
    os << "injected=" << inj.token_losses_injected() << '\n'
       << "bits_flipped=" << inj.bits_flipped() << '\n'
       << "data_bits_flipped=" << inj.data_bits_flipped() << '\n';
    return RunResult{os.str(), n.stats().ff_slots_skipped};
  };
  const RunResult ff = run(true);
  const RunResult slow = run(false);
  EXPECT_EQ(ff.fingerprint, slow.fingerprint);
  EXPECT_GT(ff.skipped, 0)
      << "armed fault axes must not disable fast-forward outright";
  EXPECT_EQ(slow.skipped, 0);
}

/// run_for (duration-bounded stepping) takes the same skips as
/// run_slots and lands on the same final state -- on the idle skip with
/// the planner off, and on the plan cursor and its wait skip with it on.
TEST(FastForward, RunForMatchesSlotBySlot) {
  auto run = [](bool fast_forward, bool planner) {
    net::NetworkConfig cfg;
    cfg.nodes = 8;
    cfg.fast_forward = fast_forward;
    cfg.planner = planner;
    net::Network n(cfg);
    workload::PeriodicSetParams wp;
    wp.nodes = 8;
    wp.connections = 8;
    wp.total_utilisation = 0.2 * n.timing().u_max();
    wp.seed = 7;
    if (planner) {
      // One shared period keeps the hyperperiod within the planner's cap.
      wp.min_period_slots = 64;
      wp.max_period_slots = 64;
    }
    for (const auto& c : workload::make_periodic_set(wp)) {
      (void)n.open_connection(c);
    }
    n.run_for(sim::Duration::microseconds(5'000));
    EXPECT_EQ(n.stats().planned_slots > 0, planner);
    return RunResult{fingerprint(n), n.stats().ff_slots_skipped};
  };
  for (const bool planner : {false, true}) {
    SCOPED_TRACE(planner ? "planner on" : "planner off");
    const RunResult ff = run(true, planner);
    const RunResult slow = run(false, planner);
    EXPECT_EQ(ff.fingerprint, slow.fingerprint);
    EXPECT_GT(ff.skipped, 0);
  }
}

}  // namespace
}  // namespace ccredf
