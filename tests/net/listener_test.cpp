// net::SlotListener contract: an attached service keeps the idle
// fast-forward, a skipped window is invisible in every statistic and
// every service output, a function observer still sees every slot, and
// a listener may die before or after its network.
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "services/admission_agent.hpp"
#include "services/barrier.hpp"
#include "services/reduce.hpp"
#include "services/reliable.hpp"
#include "services/resilience.hpp"
#include "sim/rng.hpp"
#include "support/stats_fingerprint.hpp"
#include "workload/periodic.hpp"

namespace ccredf {
namespace {

using sim::Duration;
using sim::TimePoint;

net::NetworkConfig cfg8(bool fast_forward = true) {
  net::NetworkConfig cfg;
  cfg.nodes = 8;
  cfg.record_inboxes = false;
  cfg.fast_forward = fast_forward;
  cfg.with_acks = true;
  cfg.with_payload_crc = true;
  return cfg;
}

/// A periodic set at a quarter of U_max: busy slots with idle stretches
/// between them, so both engines have something to step and to skip.
void open_periodic(net::Network& n) {
  workload::PeriodicSetParams wp;
  wp.nodes = n.nodes();
  wp.connections = 8;
  wp.total_utilisation = 0.25 * n.timing().u_max();
  wp.seed = 42;
  for (const auto& c : workload::make_periodic_set(wp)) {
    ASSERT_TRUE(n.open_connection(c).admitted);
  }
}

struct Outcome {
  std::string stats;
  std::string outputs;  // what the services under test reported
  std::int64_t skipped = 0;
};

/// Runs `scenario` with the fast-forward on and off: both runs must agree
/// byte for byte, and the fast one must actually have skipped slots.
void expect_fast_forward_invisible(
    const std::function<Outcome(bool)>& scenario) {
  const Outcome fast = scenario(true);
  const Outcome slow = scenario(false);
  EXPECT_EQ(fast.stats, slow.stats);
  EXPECT_EQ(fast.outputs, slow.outputs);
  EXPECT_GT(fast.skipped, 0) << "fast-forward never engaged";
  EXPECT_EQ(slow.skipped, 0);
}

/// Slot extents from now until a keyed-random instant in [0, span).
TimePoint later(net::Network& n, sim::Rng& rng, std::uint64_t span) {
  return n.sim().now() + n.timing().slot_plus_max_gap() *
                             static_cast<std::int64_t>(rng.uniform_u64(span));
}

core::ConnectionParams small_connection(NodeId src, NodeId dst) {
  core::ConnectionParams c;
  c.source = src;
  c.dests = NodeSet::single(dst);
  c.size_slots = 1;
  c.period_slots = 400;
  return c;
}

using Make = std::function<std::shared_ptr<void>(net::Network&)>;

TEST(SlotListener, IdleServicesKeepTheFastForward) {
  const auto run = [](const Make& make) {
    net::Network n(cfg8());
    open_periodic(n);
    const std::shared_ptr<void> listener = make ? make(n) : nullptr;
    n.run_slots(20'000);
    return std::make_pair(fingerprint(n), n.stats().ff_slots_skipped);
  };
  const auto bare = run(nullptr);
  ASSERT_GT(bare.second, 0);
  const std::vector<std::pair<const char*, Make>> idle = {
      {"barrier",
       [](net::Network& n) {
         return std::make_shared<services::BarrierService>(n);
       }},
      {"reduce",
       [](net::Network& n) {
         return std::make_shared<services::GlobalReduceService>(n);
       }},
      {"reliable",
       [](net::Network& n) {
         return std::make_shared<services::ReliableChannel>(
             n, services::ReliableChannel::Params{});
       }},
      {"agent",
       [](net::Network& n) {
         return std::make_shared<services::AdmissionAgent>(
             n, services::AdmissionAgent::Params{});
       }},
      {"monitor",
       [](net::Network& n) {
         return std::make_shared<services::ResilienceMonitor>(
             n, services::ResilienceParams{});
       }},
  };
  for (const auto& [name, make] : idle) {
    SCOPED_TRACE(name);
    const auto with = run(make);
    EXPECT_EQ(with.first, bare.first);
    EXPECT_EQ(with.second, bare.second);
  }
}

TEST(SlotListener, BarrierAndReduceMatchSlotBySlot) {
  expect_fast_forward_invisible([](bool fast_forward) {
    net::Network n(cfg8(fast_forward));
    open_periodic(n);
    services::BarrierService barrier(n);
    services::GlobalReduceService reduce(n);
    sim::Rng rng(7);
    std::ostringstream out;
    for (int round = 0; round < 20; ++round) {
      barrier.begin(n.topology().all_nodes());
      reduce.begin(n.topology().all_nodes(), services::ReduceOp::kSum);
      for (NodeId i = 0; i < n.nodes(); ++i) {
        n.sim().schedule_at(later(n, rng, 400),
                            [&barrier, i] { barrier.arrive(i); });
        const std::int64_t v = rng.uniform_int(-1000, 1000);
        n.sim().schedule_at(later(n, rng, 400),
                            [&reduce, i, v] { reduce.contribute(i, v); });
      }
      n.run_slots(1'000);
      EXPECT_TRUE(barrier.complete() && reduce.complete()) << round;
      out << barrier.completion_time().value_or(TimePoint::infinity()).ps()
          << ' ' << barrier.latency().value_or(Duration::zero()).ps() << ' '
          << reduce.result().value_or(0) << ' '
          << reduce.completion_time().value_or(TimePoint::infinity()).ps()
          << '\n';
    }
    return Outcome{fingerprint(n), out.str(), n.stats().ff_slots_skipped};
  });
}

TEST(SlotListener, ReliableTransfersMatchSlotBySlot) {
  expect_fast_forward_invisible([](bool fast_forward) {
    net::Network n(cfg8(fast_forward));
    open_periodic(n);
    fault::FaultInjector inj(n, /*seed=*/11);
    inj.set_data_ber(5e-5);
    services::ReliableChannel ch(n, services::ReliableChannel::Params{});
    sim::Rng rng(3);
    std::ostringstream out;
    const auto record = [&out](const services::ReliableChannel::
                                   TransferResult& r) {
      out << r.id << ' ' << r.delivered << ' ' << r.abandoned << ' '
          << r.attempts << ' ' << r.completed.ps() << '\n';
    };
    for (int i = 0; i < 200; ++i) {
      const auto src = static_cast<NodeId>(rng.uniform_u64(8));
      const auto dst = static_cast<NodeId>((src + 1 + rng.uniform_u64(7)) % 8);
      const std::int64_t size = rng.uniform_int(1, 3);
      const TimePoint at =
          TimePoint::origin() +
          n.timing().slot_plus_max_gap() * (100 * i + rng.uniform_int(0, 99));
      n.sim().schedule_at(at, [&, src, dst, size] {
        ch.send(src, dst, size, n.timing().slot() * 300, record);
      });
    }
    n.run_slots(25'000);
    out << ch.transfers_started() << ' ' << ch.transfers_delivered() << ' '
        << ch.transfers_failed() << ' ' << ch.transfers_abandoned() << ' '
        << ch.retransmissions() << ' ' << ch.nacks_received();
    EXPECT_GT(ch.retransmissions(), 0);
    return Outcome{fingerprint(n), out.str(), n.stats().ff_slots_skipped};
  });
}

TEST(SlotListener, AdmissionNegotiationsMatchSlotBySlot) {
  expect_fast_forward_invisible([](bool fast_forward) {
    net::Network n(cfg8(fast_forward));
    open_periodic(n);
    fault::FaultInjector inj(n, /*seed=*/13);
    inj.set_data_ber(2e-5);
    services::AdmissionAgent::Params p;
    p.health_window_slots = 100;
    services::AdmissionAgent agent(n, p);
    sim::Rng rng(5);
    std::ostringstream out;
    out << std::hexfloat;
    for (int i = 0; i < 40; ++i) {
      const auto src = static_cast<NodeId>(rng.uniform_u64(8));
      const auto dst = static_cast<NodeId>((src + 1 + rng.uniform_u64(7)) % 8);
      const TimePoint at =
          TimePoint::origin() +
          n.timing().slot_plus_max_gap() * (250 * i + rng.uniform_int(0, 249));
      n.sim().schedule_at(at, [&, src, dst] {
        agent.request(src, small_connection(src, dst),
                      [&](bool admitted, ConnectionId id) {
                        out << admitted << ' ' << id << ' '
                            << n.sim().now().ps() << ' '
                            << agent.capacity_factor() << '\n';
                      });
      });
    }
    n.run_slots(20'000);
    out << agent.requests_sent() << ' ' << agent.replies_delivered() << ' '
        << agent.renegotiations() << ' ' << agent.capacity_factor() << ' '
        << agent.observed_corruption_rate();
    // Non-vacuous: negotiations completed and health windows acted.
    EXPECT_GT(agent.replies_delivered(), 0);
    EXPECT_GT(agent.renegotiations(), 0);
    return Outcome{fingerprint(n), out.str(), n.stats().ff_slots_skipped};
  });
}

TEST(SlotListener, FunctionObserverSeesEverySlot) {
  net::Network n(cfg8());
  open_periodic(n);
  std::int64_t calls = 0;
  SlotIndex expected = 0;
  n.add_slot_observer([&](const net::SlotRecord& rec) {
    EXPECT_EQ(rec.index, expected++);
    ++calls;
  });
  n.run_slots(5'000);
  EXPECT_EQ(calls, 5'000);
  EXPECT_EQ(n.stats().ff_slots_skipped, 0);
}

TEST(SlotListener, ListenersMayAttachAndDetachDuringANotification) {
  struct Counter final : net::SlotListener {
    std::int64_t slots = 0;
    std::function<void()> once;
    void on_slot(const net::SlotRecord& /*rec*/) override {
      ++slots;
      if (once) std::exchange(once, nullptr)();
    }
  };
  net::Network n(cfg8());
  Counter first, second, third;
  n.attach(first);
  n.attach(second);
  // In slot 0, `first` detaches `second` before its turn and attaches
  // `third`, which is told from the next slot on.
  first.once = [&] {
    n.detach(second);
    n.attach(third);
  };
  n.run_slots(10);
  EXPECT_EQ(first.slots, 10);
  EXPECT_EQ(second.slots, 0);
  EXPECT_EQ(third.slots, 9);
  const std::vector<net::SlotListener*> expected = {&first, &third};
  EXPECT_EQ(n.listeners(), expected);
}

TEST(SlotListener, DestroyedListenersAreDetached) {
  // Each kind holds state its slot callback reads within the run (the
  // reliable transfer completes after the first three slots), so a
  // dangling registration would touch freed memory.
  const std::vector<std::pair<const char*, Make>> kinds = {
      {"barrier",
       [](net::Network& n) {
         auto b = std::make_shared<services::BarrierService>(n);
         b->begin(n.topology().all_nodes());
         b->arrive(0);
         return b;
       }},
      {"reduce",
       [](net::Network& n) {
         auto r = std::make_shared<services::GlobalReduceService>(n);
         r->begin(n.topology().all_nodes(), services::ReduceOp::kMax);
         r->contribute(1, 5);
         return r;
       }},
      {"reliable",
       [](net::Network& n) {
         auto ch = std::make_shared<services::ReliableChannel>(
             n, services::ReliableChannel::Params{});
         ch->send(0, 3, 8, Duration::milliseconds(1), nullptr);
         return ch;
       }},
      {"agent",
       [](net::Network& n) {
         services::AdmissionAgent::Params p;
         p.health_window_slots = 4;
         auto a = std::make_shared<services::AdmissionAgent>(n, p);
         a->request(2, small_connection(2, 5), nullptr);
         return a;
       }},
      {"monitor",
       [](net::Network& n) {
         return std::make_shared<services::ResilienceMonitor>(
             n, services::ResilienceParams{});
       }},
      {"injector",
       [](net::Network& n) {
         auto inj = std::make_shared<fault::FaultInjector>(n, 3);
         inj->set_control_ber(1e-4);
         return inj;
       }},
  };
  for (const auto& [name, make] : kinds) {
    SCOPED_TRACE(name);
    {  // The listener dies first; the network runs on without it.
      net::Network n(cfg8());
      std::shared_ptr<void> listener = make(n);
      n.run_slots(3);
      listener.reset();
      EXPECT_TRUE(n.listeners().empty());
      n.run_slots(20);
    }
    {  // The network dies first; the listener must not touch it.
      auto n = std::make_unique<net::Network>(cfg8());
      std::shared_ptr<void> listener = make(*n);
      n->run_slots(3);
      n.reset();
    }
  }
}

}  // namespace
}  // namespace ccredf
