#include "layers.hpp"

#include <algorithm>
#include <map>

#include "core/arbitration.hpp"
#include "core/edf_queue.hpp"
#include "core/hypercycle.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

using namespace ccredf;

namespace {

/// Each replay runs this many times; the median pass is reported.
constexpr int kReplayPasses = 3;

}  // namespace

void NetCounters::add(const net::Network& n) {
  const net::NetworkStats& s = n.stats();
  slots += s.slots;
  ff_slots += s.ff_slots_skipped;
  ff_windows += s.ff_windows;
  planned += s.planned_slots;
  plan_wait += s.plan_wait_slots;
  divergences += s.plan_divergences;
  for (const std::int64_t r : s.node_requests) requests += r;
  grants += s.total_grants;
  events += static_cast<std::int64_t>(n.sim().events_fired());
}

void NetCounters::report(Report& rep) const {
  const double n = slots == 0 ? 1.0 : static_cast<double>(slots);
  const auto frac = [n](std::int64_t v) { return static_cast<double>(v) / n; };
  // Plan-wait stretches may also be fast-forwarded (counted twice).
  rep.metric("net.stepped_slot_frac",
             frac(std::max<std::int64_t>(0, slots - ff_slots - planned -
                                                plan_wait)),
             "frac");
  rep.metric("net.requests_per_slot", frac(requests), "count");
  rep.metric("net.grants_per_slot", frac(grants), "count");
  rep.metric("net.planned_slot_frac", frac(planned), "frac");
  rep.metric("net.plan_wait_slot_frac", frac(plan_wait), "frac");
  rep.metric("net.plan_divergences", static_cast<double>(divergences),
             "count");
  rep.metric("net.ff_slot_frac", frac(ff_slots), "frac");
  rep.metric("net.ff_windows_per_kslot", 1000.0 * frac(ff_windows), "count");
  rep.metric("sim.events_per_slot", frac(events), "count");
}

void Capture::attach(net::Network& n) {
  nodes = n.nodes();
  n.add_slot_observer([this, &n](const net::SlotRecord& r) {
    Slot s;
    s.start = r.start;
    s.master = r.master;
    s.granted = r.granted;
    std::vector<core::Request> reqs(nodes);
    if (r.requests.size() == nodes) {
      for (NodeId j = 0; j < nodes; ++j) {
        if (r.requests[j].wants_slot()) {
          s.requesters.insert(j);
          reqs[j] = r.requests[j];
        }
      }
    }
    slots.push_back(s);
    requests.push_back(std::move(reqs));
    for (const core::Delivery& d : r.deliveries) {
      core::Message m;
      m.id = d.id;
      m.source = d.source;
      m.dests = d.dests;
      m.traffic_class = d.traffic_class;
      m.size_slots = d.size_slots;
      m.remaining_slots = d.size_slots;
      m.arrival = d.arrival;
      m.deadline = d.deadline;
      m.connection = d.connection;
      messages.push_back(m);
    }
    for (const NodeId j : n.queued_nodes()) {
      depth.push_back(static_cast<double>(n.node(j).queues().size()));
    }
  });
}

ArbiterReplay replay_arbiter(const Capture& cap, const net::Network& n,
                             Tracer& tr) {
  const core::Arbiter arbiter(n.topology(), n.config().spatial_reuse);
  ArbiterReplay out;
  if (cap.slots.empty()) return out;
  double candidates = 0.0;
  for (const Capture::Slot& s : cap.slots) candidates += s.requesters.size();
  out.candidates_per_call = candidates / static_cast<double>(cap.slots.size());

  std::vector<double> pass_ns;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    const ScopedSpan span(tr, "core.arbiter.arbitrate");
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < cap.slots.size(); ++i) {
      const Capture::Slot& s = cap.slots[i];
      const core::ArbitrationResult r =
          arbiter.arbitrate(cap.requests[i], s.master, s.requesters);
      sink += static_cast<std::uint64_t>(r.granted_count) + r.next_master;
    }
    pass_ns.push_back(seconds_since(t0) * 1e9);
  }
  keep(sink);
  out.ns_per_call = median(pass_ns) / static_cast<double>(cap.slots.size());
  return out;
}

EdfReplay replay_edf(const Capture& cap, Tracer& tr) {
  std::vector<const core::Message*> order;
  order.reserve(cap.messages.size());
  for (const core::Message& m : cap.messages) order.push_back(&m);
  std::sort(order.begin(), order.end(),
            [](const core::Message* a, const core::Message* b) {
              return a->arrival != b->arrival ? a->arrival < b->arrival
                                              : a->id < b->id;
            });
  const double clock_ns = clock_overhead_ns();
  const auto batch_ns = [clock_ns](Clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
               .count() -
           clock_ns;
  };

  std::vector<double> push, head, consume;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    const ScopedSpan span(tr, "core.edf.replay");
    std::vector<core::EdfQueueSet> q(cap.nodes);
    std::vector<MessageId> bound(cap.nodes, 0);
    NodeSet queued;
    double push_ns = 0.0, head_ns = 0.0, consume_ns = 0.0;
    std::int64_t pushes = 0, heads = 0, consumes = 0;
    std::size_t next = 0;
    for (const Capture::Slot& s : cap.slots) {
      if (next < order.size() && order[next]->arrival <= s.start) {
        const auto t0 = Clock::now();
        while (next < order.size() && order[next]->arrival <= s.start) {
          q[order[next]->source].push(*order[next]);
          queued.insert(order[next]->source);
          ++next;
          ++pushes;
        }
        push_ns += batch_ns(t0);
      }
      if (!s.granted.empty()) {
        const auto t0 = Clock::now();
        for (const NodeId g : s.granted) {
          if (bound[g] != 0 && q[g].contains(bound[g])) {
            (void)q[g].consume_slot(bound[g]);
            ++consumes;
          }
        }
        consume_ns += batch_ns(t0);
        for (const NodeId g : s.granted) {
          if (q[g].empty()) queued.erase(g);
        }
      }
      // Collection samples the head of every node with a queued message
      // (the plan-forward path skips this phase; the replay does not).
      if (!queued.empty()) {
        const auto t0 = Clock::now();
        for (const NodeId j : queued) {
          const core::Message* h = q[j].head(s.start);
          bound[j] = h == nullptr ? 0 : h->id;
          ++heads;
        }
        head_ns += batch_ns(t0);
      }
    }
    const auto per = [](double ns, std::int64_t ops) {
      return ops == 0 ? 0.0 : std::max(0.0, ns / static_cast<double>(ops));
    };
    push.push_back(per(push_ns, pushes));
    head.push_back(per(head_ns, heads));
    consume.push_back(per(consume_ns, consumes));
  }
  return EdfReplay{median(push), median(head), median(consume)};
}

namespace {

/// Self-rescheduling event chains over captured instants: each firing
/// schedules the chain's next instant, like the engine's release events.
struct ChainDriver {
  sim::Simulator sim;
  const std::vector<std::vector<sim::TimePoint>>* chains = nullptr;
  std::int64_t fired = 0;

  void arm(std::size_t c, std::size_t i) {
    sim.schedule_at((*chains)[c][i], [this, c, i] {
      ++fired;
      if (i + 1 < (*chains)[c].size()) arm(c, i + 1);
    });
  }
};

}  // namespace

double replay_simulator(const Capture& cap, Tracer& tr) {
  // Connection releases chain per connection; other arrivals per source.
  std::map<std::uint64_t, std::vector<sim::TimePoint>> keyed;
  for (const core::Message& m : cap.messages) {
    const std::uint64_t key = m.connection != kNoConnection
                                  ? m.connection
                                  : (std::uint64_t{1} << 40) + m.source;
    keyed[key].push_back(m.arrival);
  }
  std::vector<std::vector<sim::TimePoint>> chains;
  for (auto& [key, times] : keyed) {
    std::sort(times.begin(), times.end());
    chains.push_back(std::move(times));
  }
  std::vector<double> per_event;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    const ScopedSpan span(tr, "sim.simulator.replay");
    ChainDriver d;
    d.chains = &chains;
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < chains.size(); ++c) d.arm(c, 0);
    for (const Capture::Slot& s : cap.slots) d.sim.run_until(s.start);
    d.sim.run_all();
    const double ns = seconds_since(t0) * 1e9;
    per_event.push_back(d.fired == 0 ? 0.0
                                     : ns / static_cast<double>(d.fired));
  }
  return median(per_event);
}

PlannerTiming time_planner(const net::Network& n,
                           const std::vector<core::ConnectionParams>& set,
                           Tracer& tr) {
  core::HypercyclePlanner::Config pc;
  pc.max_hyperperiod_slots = n.config().planner_max_hyperperiod_slots;
  pc.spatial_reuse = n.config().spatial_reuse;
  core::HypercyclePlanner planner(&n.phy(), n.topology(), n.timing().slot(),
                                  pc);
  PlannerTiming out;
  std::vector<double> build_ms;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    planner.clear();
    for (std::size_t k = 0; k < set.size(); ++k) {
      planner.add(static_cast<ConnectionId>(k + 1), set[k],
                  set[k].offset_slots);
    }
    const ScopedSpan span(tr, "core.planner.build");
    const auto t0 = Clock::now();
    out.valid = planner.build(sim::TimePoint::origin(), 0);
    build_ms.push_back(seconds_since(t0) * 1e3);
  }
  out.build_ms = median(build_ms);
  if (!out.valid) return out;

  const std::int64_t h = planner.hyperperiod_slots();
  constexpr std::int64_t kLookups = std::int64_t{1} << 20;
  std::vector<double> lookup_ns;
  std::int64_t sink = 0;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    const ScopedSpan span(tr, "core.planner.plan_for_slot");
    const auto t0 = Clock::now();
    std::int64_t s = 0;
    for (std::int64_t i = 0; i < kLookups; ++i) {
      sink += planner.plan_for_slot(s);
      if (++s == h) s = 0;
    }
    lookup_ns.push_back(seconds_since(t0) * 1e9 /
                        static_cast<double>(kLookups));
  }
  keep(sink);
  out.lookup_ns = median(lookup_ns);
  return out;
}

}  // namespace perfbench
