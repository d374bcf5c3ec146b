// Generator lifetime: a workload generator arms arrivals on its network's
// event queue, and neither destruction order may leave an armed entry
// that points at a dead object.  A generator destroyed first must disarm
// its arrivals (else the next slot calls into freed memory); a network
// destroyed first must leave the generator's destructor nothing to touch.
// Under the asan preset either mistake is a use-after-free report.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "net/network.hpp"
#include "services/cbs.hpp"
#include "workload/aperiodic.hpp"
#include "workload/poisson.hpp"

namespace ccredf::workload {
namespace {

struct Kind {
  const char* name;
  // Builds a generator on `net` that keeps arrivals armed far past the
  // test's horizon.
  std::function<std::shared_ptr<void>(net::Network&)> make;
};

sim::TimePoint far_future(const net::Network& n) {
  return sim::TimePoint::origin() + n.timing().slot_plus_max_gap() * 100'000;
}

std::vector<Kind> kinds() {
  return {
      {"poisson",
       [](net::Network& n) -> std::shared_ptr<void> {
         PoissonParams p;
         p.rate_per_node = 0.5;
         return std::make_shared<PoissonGenerator>(n, p, far_future(n));
       }},
      {"aperiodic (bursty)",
       [](net::Network& n) -> std::shared_ptr<void> {
         services::CbsFlowSetParams fp;
         fp.flows = 4;
         fp.budget_slots = 2;
         fp.period_slots = 100;
         const services::CbsFlowSet flows(n, fp);
         AperiodicParams p;
         p.rate_per_flow = 0.5;
         p.mean_burst_slots = 20.0;
         p.mean_idle_slots = 20.0;
         return std::make_shared<AperiodicGenerator>(n, flows.ids(), p,
                                                     far_future(n));
       }},
  };
}

net::NetworkConfig cfg8() {
  net::NetworkConfig cfg;
  cfg.nodes = 8;
  return cfg;
}

TEST(ArrivalProcess, DestroyedProcessesLeaveNothingArmed) {
  for (const Kind& kind : kinds()) {
    SCOPED_TRACE(kind.name);
    {
      // Generator first.  The network has no connection, so every
      // pending event is one of the generator's arrivals.
      net::Network n(cfg8());
      std::shared_ptr<void> gen = kind.make(n);
      n.run_slots(10);
      ASSERT_FALSE(n.sim().idle()) << "the generator armed nothing";
      gen.reset();
      EXPECT_TRUE(n.sim().idle()) << "arrivals outlived their generator";
      const std::uint64_t fired = n.sim().events_fired();
      n.run_slots(100);
      EXPECT_EQ(n.sim().events_fired(), fired);
    }
    {
      // Network first: the generator's destructor must not reach into
      // the destroyed event queue.
      std::shared_ptr<void> gen;
      {
        net::Network n(cfg8());
        gen = kind.make(n);
        n.run_slots(10);
        ASSERT_FALSE(n.sim().idle());
      }
      gen.reset();
    }
  }
}

}  // namespace
}  // namespace ccredf::workload
