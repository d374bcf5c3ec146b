// tcma32 / planned32: one 32-node CCR-EDF ring running the E23b busy
// fully periodic set at 0.9 x U_max, with the hypercycle planner off
// (every slot runs collection, arbitration and grant execution) or on
// (the plan-forward path skips collection and arbitration).  Both
// workloads offer identical traffic for a seed, so a change to one
// engine path should move one of them only.
#include <map>
#include <memory>
#include <sstream>

#include "layers.hpp"
#include "net/network.hpp"
#include "sim/rng.hpp"
#include "sweep/grid.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ccredf;

constexpr NodeId kNodes = 32;
constexpr std::int64_t kPeriod = 32;
constexpr double kLoad = 0.9;  // of the ring's Eq. 6 U_max

struct Sizes {
  std::int64_t chunk;   // slots per timed run_slots call
  std::int64_t warmup;  // slots run inside set-up
  std::int64_t verify;  // slots of each digest verification run
  std::int64_t capture;  // slots of the traced run's capture pass
  double setup_seconds;  // set-up repeats for at least this long
};

Sizes sizes(bool tiny) {
  if (tiny) return Sizes{2048, 4096, 8192, 2048, 0.05};
  return Sizes{16384, std::int64_t{1} << 17, std::int64_t{1} << 18,
               std::int64_t{1} << 14, 2.0};
}

net::NetworkConfig ring_config(bool planner) {
  const sweep::GridSpec spec;
  sweep::GridPoint p;
  p.nodes = kNodes;
  p.planner = planner;
  return sweep::make_network_config(spec, p);
}

struct Built {
  std::unique_ptr<net::Network> net;
  std::vector<double> open_s;
  int admitted = 0;
};

Built build(const net::NetworkConfig& cfg,
            const std::vector<core::ConnectionParams>& set) {
  Built b;
  b.net = std::make_unique<net::Network>(cfg);
  for (const core::ConnectionParams& c : set) {
    const auto t0 = Clock::now();
    const bool admitted = b.net->open_connection(c).admitted;
    b.open_s.push_back(seconds_since(t0));
    if (admitted) ++b.admitted;
  }
  return b;
}

/// The closed timing loop: one caller issuing run_slots(chunk) calls.
/// Every chunk is the same work (a whole number of hyperperiods).
struct Timing {
  std::vector<double> chunk_s;
  double busy_s = 0.0;  // inside run_slots
  double wall_s = 0.0;
};

void time_chunks(net::Network& n, std::int64_t chunk, double seconds,
                 Tracer* tr, Timing& out) {
  const auto start = Clock::now();
  do {
    const int span = tr != nullptr ? tr->begin("net.run_slots") : -1;
    const auto t0 = Clock::now();
    n.run_slots(chunk);
    const double dt = seconds_since(t0);
    if (tr != nullptr) tr->end(span);
    out.chunk_s.push_back(dt);
    out.busy_s += dt;
  } while (seconds_since(start) < seconds);
  out.wall_s += seconds_since(start);
}

void put(std::ostream& os, const sim::OnlineStats& s) {
  os << s.count() << ',' << s.mean() << ',' << s.stddev() << ',' << s.min()
     << ',' << s.max() << ';';
}

void put(std::ostream& os, const sim::ExactStats& s) {
  os << s.count() << ',' << s.sum_exact() << ',' << s.stddev() << ','
     << s.min() << ',' << s.max() << ';';
}

/// Hexfloat digest of the engine statistics that every engine path must
/// reproduce bit for bit (the fast-path slot counters are left out).
std::string stats_digest(const net::NetworkStats& s) {
  std::ostringstream os;
  os << std::hexfloat;
  os << s.slots << ',' << s.busy_slots << ',' << s.total_grants << ','
     << s.reuse_slots << ',' << s.wasted_grants << ',' << s.buffer_drops
     << ',' << s.priority_inversions << ',' << s.time_in_slots.ps() << ','
     << s.time_in_gaps.ps() << ',' << s.planned_slots << ','
     << s.plan_wait_slots << ',' << s.plan_builds << ',' << s.plan_divergences
     << ';';
  put(os, s.handover_hops);
  put(os, s.gap);
  for (const std::int64_t v : s.node_requests) os << v << ',';
  for (const std::int64_t v : s.node_grants) os << v << ',';
  for (const net::ClassStats& c : s.per_class) {
    os << c.delivered << ',' << c.scheduling_misses << ',' << c.user_misses
       << ',' << c.bytes << ',';
    put(os, c.latency);
  }
  std::map<ConnectionId, const net::ConnectionStats*> conns;
  for (const auto& [id, cs] : s.per_connection) conns.emplace(id, &cs);
  for (const auto& [id, cs] : conns) {
    os << id << ':' << cs->released << ',' << cs->delivered << ','
       << cs->scheduling_misses << ',' << cs->user_misses << ',' << cs->bytes
       << ',';
    put(os, cs->latency);
  }
  os << s.faults.recoveries << ',' << s.faults.token_losses << ','
     << s.faults.detected() << ',' << s.faults.silent() << ';';
  return os.str();
}

}  // namespace

std::vector<core::ConnectionParams> busy_set(NodeId nodes,
                                             std::int64_t period, int streams,
                                             std::uint64_t seed) {
  // The seed deals a balanced hand: release phases spread evenly over the
  // period (rotated by a random amount) and hop counts 1-4 in equal
  // shares, each shuffled over the streams.  Every seed then offers the
  // same per-slot demand and link load, so seeds differ in which streams
  // contend, not in how much work a slot costs.
  sim::Rng rng(sim::Rng::stream_seed(seed, 0x62757379ull /* "busy" */, 0));
  const auto n = static_cast<std::size_t>(streams);
  const std::int64_t rotation = rng.uniform_int(0, period - 1);
  const std::vector<std::size_t> phase_of = rng.permutation(n);
  const std::vector<std::size_t> hops_of = rng.permutation(n);
  std::vector<core::ConnectionParams> set;
  for (std::size_t k = 0; k < n; ++k) {
    core::ConnectionParams c;
    c.source = static_cast<NodeId>(k % nodes);
    const auto hops = static_cast<NodeId>(1 + hops_of[k] % 4);
    c.dests = NodeSet::single((c.source + hops) % nodes);
    c.size_slots = 1;
    c.period_slots = period;
    const auto spread = static_cast<std::int64_t>(phase_of[k]) * period /
                        static_cast<std::int64_t>(n);
    c.offset_slots = (spread + rotation) % period;
    set.push_back(c);
  }
  return set;
}

void run_ring(const Options& opt, bool planner, Tracer& tr, Report& rep) {
  const Sizes z = sizes(opt.tiny);
  const ScopedSpan root(tr, planner ? "workload.planned32"
                                    : "workload.tcma32");
  const net::NetworkConfig cfg = ring_config(planner);
  int streams = 0;
  {
    const net::Network probe(cfg);
    streams = static_cast<int>(kLoad * probe.admission().u_max() *
                               static_cast<double>(kPeriod));
  }
  const std::vector<core::ConnectionParams> set =
      busy_set(kNodes, kPeriod, streams, opt.seed);

  // Set-up: construction, admission (and plan build), warm-up; repeated,
  // and the last repetition's network is the timed one.
  std::vector<double> setup_s;
  std::vector<double> open_s;
  Built timed;
  {
    const ScopedSpan span(tr, "setup");
    const auto start = Clock::now();
    do {
      const auto t0 = Clock::now();
      Built b = build(cfg, set);
      b.net->run_slots(z.warmup);
      setup_s.push_back(seconds_since(t0));
      open_s.insert(open_s.end(), b.open_s.begin(), b.open_s.end());
      timed = std::move(b);
    } while (setup_s.size() < 3 || seconds_since(start) < z.setup_seconds);
  }
  net::Network& n = *timed.net;
  rep.check("admission.all_admitted", timed.admitted == streams,
            str(timed.admitted) + "/" + str(streams));

  // Timed phase.  The traced run alternates untraced and traced blocks
  // on the same network, so trace.overhead_frac compares like with like.
  Timing plain;
  Timing traced;
  {
    const ScopedSpan span(tr, "phase.timed");
    if (!opt.trace) {
      time_chunks(n, z.chunk, opt.seconds, nullptr, plain);
    } else {
      const double block = std::min(0.5, opt.seconds / 4.0);
      const auto start = Clock::now();
      while (seconds_since(start) < opt.seconds) {
        time_chunks(n, z.chunk, block, nullptr, plain);
        time_chunks(n, z.chunk, block, &tr, traced);
      }
    }
  }
  const std::int64_t chunks =
      static_cast<std::int64_t>(plain.chunk_s.size() + traced.chunk_s.size());
  rep.ops(chunks, 0);

  // Output and regime checks on the timed network.
  const net::NetworkStats& st = n.stats();
  const net::ClassStats& rt = st.cls(core::TrafficClass::kRealTime);
  const double slots = static_cast<double>(st.slots);
  const double plan_driven =
      static_cast<double>(st.planned_slots + st.plan_wait_slots) / slots;
  rep.check("rt.user_misses_zero", rt.user_misses == 0,
            str(static_cast<double>(rt.user_misses)) + " of " +
                str(static_cast<double>(rt.delivered)));
  rep.check("rt.delivered", rt.delivered > 0,
            str(static_cast<double>(rt.delivered)));
  if (planner) {
    rep.check("regime.plan_driven_ge_0.95",
              n.plan_engaged() && plan_driven >= 0.95,
              "plan-driven fraction " + str(plan_driven));
    rep.check("regime.no_plan_divergence", st.plan_divergences == 0,
              str(static_cast<double>(st.plan_divergences)));
  } else {
    rep.check("regime.no_planned_slots",
              st.planned_slots == 0 && st.plan_builds == 0,
              str(static_cast<double>(st.planned_slots)));
  }
  rep.profile("streams", streams);
  rep.profile("u_max", n.admission().u_max());
  rep.profile("slots", slots);
  rep.profile("plan_driven_frac", plan_driven);
  rep.profile("ff_slot_frac", st.fast_forward_ratio());
  rep.profile("grants_per_slot", static_cast<double>(st.total_grants) / slots);

  // Digest: a fixed-length run on the timed engine path must match the
  // same run slot by slot (fast-forward and plan-forward off).
  {
    const ScopedSpan span(tr, "verify");
    Built fast = build(cfg, set);
    fast.net->run_slots(z.verify);
    net::NetworkConfig slow_cfg = cfg;
    slow_cfg.fast_forward = false;
    Built slow = build(slow_cfg, set);
    slow.net->run_slots(z.verify);
    const std::string d = stats_digest(fast.net->stats());
    rep.check("digest.fast_path_equals_slot_by_slot",
              d == stats_digest(slow.net->stats()), "");
    rep.check("verify.rt_user_misses_zero",
              fast.net->stats().cls(core::TrafficClass::kRealTime)
                      .user_misses == 0,
              "");
    rep.digest(d);
  }

  const double chunk = static_cast<double>(z.chunk);
  if (!opt.trace) {
    rep.metric("slots_per_s", chunk / fastest(plain.chunk_s), "1/s");
    rep.metric("shards_per_s", 1.0 / fastest(plain.chunk_s), "1/s");
    rep.metric("setup_s", fastest(setup_s), "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: engine counters, then the capture/replay harness.
  NetCounters counters;
  counters.add(n);
  counters.report(rep);
  rep.metric("net.ns_per_slot_p50", median(plain.chunk_s) * 1e9 / chunk,
             "ns");
  rep.metric("net.ns_per_slot_p90", quantile(plain.chunk_s, 0.9) * 1e9 / chunk,
             "ns");
  rep.metric("net.run_slots_ns", median(traced.chunk_s) * 1e9, "ns");
  rep.metric("sweep.shard_s_p50", median(plain.chunk_s), "s");
  rep.metric("sweep.shard_s_p90", quantile(plain.chunk_s, 0.9), "s");
  rep.metric("sweep.parallel_efficiency",
             (plain.busy_s + traced.busy_s) / (plain.wall_s + traced.wall_s),
             "frac");
  rep.metric("trace.overhead_frac",
             fastest(traced.chunk_s) / fastest(plain.chunk_s) - 1.0, "frac");
  rep.metric("core.admission.open_us", median(open_s) * 1e6, "us");
  rep.metric("fault.recoveries", static_cast<double>(n.recoveries()),
             "count");
  rep.metric("services.churn_downs", 0.0, "count");

  Capture cap;
  Built capture_net = build(cfg, set);
  {
    const ScopedSpan span(tr, "capture");
    cap.attach(*capture_net.net);
    capture_net.net->run_slots(z.capture);
  }
  const ArbiterReplay arb = replay_arbiter(cap, *capture_net.net, tr);
  rep.metric("core.arbiter.ns_per_call", arb.ns_per_call, "ns");
  rep.metric("core.arbiter.candidates_per_call", arb.candidates_per_call,
             "count");
  const EdfReplay edf = replay_edf(cap, tr);
  rep.metric("core.edf.push_ns", edf.push_ns, "ns");
  rep.metric("core.edf.head_ns", edf.head_ns, "ns");
  rep.metric("core.edf.consume_ns", edf.consume_ns, "ns");
  rep.metric("core.edf.depth_p50", quantile(cap.depth, 0.5), "count");
  rep.metric("core.edf.depth_p90", quantile(cap.depth, 0.9), "count");
  rep.metric("sim.event_queue_ns_per_op", replay_simulator(cap, tr), "ns");
  const PlannerTiming plan = time_planner(n, set, tr);
  rep.check("planner.probe_valid", plan.valid, "");
  rep.metric("core.planner.build_ms", plan.build_ms, "ms");
  rep.metric("core.planner.lookup_ns", plan.lookup_ns, "ns");
}

}  // namespace perfbench
