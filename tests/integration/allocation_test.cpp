// Steady-state allocation audit for the slot engine.
//
// The whole point of the pooled event queue, the indexed EDF queues and
// the reused per-slot scratch is that a warmed-up simulation runs without
// touching the heap.  This binary replaces global operator new/delete
// with counting versions and asserts that running thousands of slots of
// an admitted periodic CCR-EDF load performs zero allocations, with the
// hypercycle planner off and on, with a control-BER fault hook that
// draws no flip (every slot consults it for every frame), and beside a
// saturating Poisson generator whose arrivals mostly tail-drop at a
// capped buffer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "fault/injector.hpp"
#include "net/network.hpp"
#include "workload/periodic.hpp"
#include "workload/poisson.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counting global allocator.  Only the allocation paths count; deletes
// stay silent so teardown noise cannot perturb a measurement window.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;  // aligned_alloc rule
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
// GCC pairs the replaced operator new (malloc-backed) with the standard
// deallocation functions and, once these deletes inline into callers,
// misreports the intended malloc/free pairing as mismatched.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace ccredf {
namespace {

TEST(Allocation, SteadyStateSlotsAreAllocationFree) {
  // Planner off runs every slot through collection and arbitration;
  // planner on runs the plan cursor and the release table instead.  The
  // fault leg runs planner off with a FaultInjector filtering every
  // request record and distribution packet at a control BER whose keyed
  // draws flip no bit in the window.  The generator leg adds 3 Poisson
  // arrivals per node per slot extent against a 32-message buffer, the
  // sweep's saturation cell: nearly every arrival is tail-dropped.
  struct Leg {
    const char* name;
    bool planner;
    bool fault_hook;
    bool generator;
  };
  const std::vector<Leg> legs = {
      {"planner off", false, false, false},
      {"planner on", true, false, false},
      {"control BER, no flip drawn", false, true, false},
      {"saturating Poisson generator", false, false, true},
  };
  for (const Leg& leg : legs) {
    SCOPED_TRACE(leg.name);
    net::NetworkConfig cfg;
    cfg.nodes = 16;
    cfg.planner = leg.planner;
    if (leg.generator) cfg.max_queue_messages = 32;
    net::Network n(cfg);
    std::optional<fault::FaultInjector> inj;
    if (leg.fault_hook) {
      inj.emplace(n, /*seed=*/1);
      inj->set_control_ber(1e-9);
    }
    std::optional<workload::PoissonGenerator> gen;
    if (leg.generator) {
      workload::PoissonParams pp;
      pp.rate_per_node = 3.0;
      pp.seed = 7;
      gen.emplace(n, pp, sim::TimePoint::infinity());
    }

    // A strictly periodic admitted load: one connection per node at a
    // common period, so the queue population cycles through its full
    // range well inside the warm-up window.
    workload::PeriodicSetParams wp;
    wp.nodes = cfg.nodes;
    wp.connections = static_cast<int>(cfg.nodes);
    wp.total_utilisation = 0.5 * n.admission().u_max();
    wp.min_period_slots = 100;
    wp.max_period_slots = 100;
    wp.seed = 7;
    int admitted = 0;
    for (const auto& c : workload::make_periodic_set(wp)) {
      if (n.open_connection(c).admitted) ++admitted;
    }
    ASSERT_GT(admitted, 0);

    // Warm-up: every pool, slab, vector and hash table reaches its
    // high-water capacity (50 full release periods; 200 with the
    // generator, whose buffers fill at random).
    n.run_slots(gen ? 20'000 : 5'000);

    const std::int64_t flipped = inj ? inj->bits_flipped() : 0;
    const std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    n.run_slots(20'000);
    const std::uint64_t during =
        g_allocations.load(std::memory_order_relaxed) - before;

    // Precondition of the fault leg: no frame was hit, so every filter
    // call took the path a clean frame takes.
    if (inj) {
      ASSERT_EQ(inj->bits_flipped(), flipped);
    }
    EXPECT_EQ(during, 0u)
        << during << " heap allocations in 20000 steady-state slots -- "
           "something on the slot path is allocating again";
    // Sanity: the run actually simulated work on the intended path.
    EXPECT_GT(n.stats().cls(core::TrafficClass::kRealTime).delivered, 0);
    EXPECT_EQ(n.stats().planned_slots > 0, leg.planner);
    EXPECT_EQ(n.stats().buffer_drops > 0, leg.generator);
  }
}

}  // namespace
}  // namespace ccredf
