// sweep-mixed: one fixed sweep::GridSpec run through sweep::run_sweep on
// up to four workers -- CCR-EDF and CC-FPR at 8 and 16 nodes, crossed
// with idle-dominated periodic, Poisson-background (mixed) and
// queue-capped saturation loads, a control-BER axis and a node-churn
// axis.  It loads what the single-ring workloads do not: the sweep
// runner, per-shard construction, deep EDF queues, fast-forward over
// idle stretches and the fault/resilience hooks.
#include <algorithm>
#include <memory>
#include <sstream>
#include <thread>

#include "layers.hpp"
#include "net/network.hpp"
#include "sweep/grid.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "workload/periodic.hpp"
#include "workload/poisson.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace ccredf;
using sweep::Metric;

constexpr int kMaxWorkers = 4;
constexpr std::int64_t kQueueCap = 32;
/// Regime floor: p90 transmit-queue depth on the saturation cells.
constexpr double kSaturationDepthFloor = kQueueCap / 4;
constexpr double kSetupSeconds = 2.0;

sweep::GridSpec make_spec(std::uint64_t seed, bool tiny) {
  sweep::GridSpec s;
  s.protocols = {sweep::Protocol::kCcrEdf, sweep::Protocol::kCcFpr};
  s.node_counts = {8, 16};
  s.utilisations = {0.1};
  s.mixes = {sweep::WorkloadMix::kPeriodic, sweep::WorkloadMix::kMixed,
             sweep::WorkloadMix::kSaturation};
  s.bers = {0.0, 3e-5};
  // Short shards give many timed calls per run.  Churn dwells scale with
  // the horizon so every churn cell sees failures that outlast the
  // monitor's detection window.
  s.slots = tiny ? 1000 : 2000;
  s.churns = {0.0, static_cast<double>(s.slots) / 5.0};
  s.churn_down_slots = static_cast<double>(s.slots) / 20.0;
  s.queue_cap = kQueueCap;
  s.frame_crc = true;
  s.base_seed = seed;
  return s;
}

int workers() {
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 1, kMaxWorkers);
}

bool fault_free(const sweep::GridPoint& p) {
  return p.ber == 0.0 && p.churn == 0.0;
}

std::string point_name(const sweep::GridPoint& p) {
  std::ostringstream os;
  os << sweep::protocol_name(p.protocol) << '/' << p.nodes << '/'
     << sweep::mix_name(p.mix) << "/ber=" << p.ber << "/churn=" << p.churn;
  return os.str();
}

/// A fault-free shard rebuilt from the benchmark's own files, exactly as
/// sweep::run_shard builds it (same config, seed, connection set and
/// background stream), so its network can be inspected and captured.
struct Replica {
  std::unique_ptr<net::Network> net;
  std::unique_ptr<workload::PoissonGenerator> background;
  std::vector<double> open_s;
};

std::unique_ptr<Replica> replicate(const sweep::GridSpec& spec,
                                   const sweep::GridPoint& p) {
  auto r = std::make_unique<Replica>();
  r->net = std::make_unique<net::Network>(sweep::make_network_config(spec, p));
  net::Network& n = *r->net;
  const std::uint64_t seed = sweep::shard_seed(spec, p, 0);
  if (p.mix != sweep::WorkloadMix::kSaturation) {
    workload::PeriodicSetParams wp;
    wp.nodes = p.nodes;
    wp.connections = spec.connections_per_node * static_cast<int>(p.nodes);
    wp.total_utilisation = p.utilisation * n.timing().u_max();
    wp.min_period_slots = spec.min_period_slots;
    wp.max_period_slots = spec.max_period_slots;
    wp.multicast_fraction = spec.multicast_fraction;
    wp.seed = seed;
    for (const core::ConnectionParams& c : workload::make_periodic_set(wp)) {
      const auto t0 = Clock::now();
      (void)n.open_connection(c);
      r->open_s.push_back(seconds_since(t0));
    }
  }
  if (p.mix != sweep::WorkloadMix::kPeriodic) {
    workload::PoissonParams pp;
    const bool saturated = p.mix == sweep::WorkloadMix::kSaturation;
    pp.rate_per_node = saturated ? spec.saturation_rate : spec.background_rate;
    pp.seed = sim::Rng::stream_seed(seed, 0x6261636Bull /* "back" */, 0);
    if (saturated) {
      pp.min_laxity_slots = 100;
      pp.max_laxity_slots = 2000;
    }
    r->background = std::make_unique<workload::PoissonGenerator>(
        n, pp, sim::TimePoint::origin() + n.timing().slot() * spec.slots);
  }
  return r;
}

/// The replica reproduces its shard's statistics bit for bit.
bool replica_matches(const net::Network& n, const sweep::PointResult& pr) {
  const net::ClassStats& rt = n.stats().cls(core::TrafficClass::kRealTime);
  return pr.stat(Metric::kRtDelivered).mean() ==
             static_cast<double>(rt.delivered) &&
         pr.stat(Metric::kGoodputBps).mean() == n.stats().goodput_bps() &&
         pr.stat(Metric::kMeanLatencyUs).mean() == rt.latency.mean() / 1e6 &&
         pr.stat(Metric::kSlotFraction).mean() ==
             n.stats().slot_time_fraction();
}

double total(const sweep::SweepResult& r, Metric m) {
  double s = 0.0;
  for (const sweep::PointResult& pr : r.points) s += pr.stat(m).sum();
  return s;
}

}  // namespace

void run_sweep_mixed(const Options& opt, Tracer& tr, Report& rep) {
  const ScopedSpan root(tr, "workload.sweep-mixed");
  const int w = workers();
  const sweep::RunOptions run_opts{.threads = w};

  // Set-up: grid construction and validation plus a warm-up sweep of the
  // same grid at 1/4 of the horizon (thread start, first-touch memory),
  // repeated for at least kSetupSeconds.
  std::vector<double> setup_s;
  sweep::GridSpec spec;
  {
    const ScopedSpan span(tr, "setup");
    const auto start = Clock::now();
    while (setup_s.size() < 3 ||
           seconds_since(start) < (opt.tiny ? 0.05 : kSetupSeconds)) {
      const auto t0 = Clock::now();
      spec = make_spec(opt.seed, opt.tiny);
      if (!spec.validate().empty()) {
        throw std::runtime_error("sweep-mixed: invalid grid: " +
                                 spec.validate());
      }
      sweep::GridSpec warm = spec;
      warm.slots = spec.slots / 4;
      const sweep::SweepResult wr = sweep::run_sweep(warm, run_opts);
      setup_s.push_back(seconds_since(t0));
      if (wr.failed_shards != 0) {
        rep.check("setup.warmup_failed_shards_zero", false,
                  str(static_cast<double>(wr.failed_shards)));
      }
    }
  }
  const std::vector<sweep::GridPoint> points = spec.expand();
  const double slots_per_call =
      static_cast<double>(spec.shard_count()) * static_cast<double>(spec.slots);

  // Timed phase: back-to-back sweeps from one caller.  The traced run
  // alternates untraced and traced calls.
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::int64_t failed_shards = 0;
  std::int64_t shards = 0;
  std::string json;
  sweep::SweepResult first;
  bool json_stable = true;
  {
    const ScopedSpan span(tr, "phase.timed");
    const auto start = Clock::now();
    for (int call = 0;
         seconds_since(start) < opt.seconds || plain_s.size() < 3; ++call) {
      const bool traced = opt.trace && call % 2 == 1;
      const int id = traced ? tr.begin("sweep.run_sweep") : -1;
      const auto t0 = Clock::now();
      sweep::SweepResult r = sweep::run_sweep(spec, run_opts);
      const double dt = seconds_since(t0);
      tr.end(id);
      (traced ? traced_s : plain_s).push_back(dt);
      failed_shards += r.failed_shards;
      shards += r.shards;
      std::string j = sweep::to_json(r);
      if (json.empty()) {
        json = std::move(j);
        first = std::move(r);
      } else if (j != json) {
        json_stable = false;
      }
    }
  }
  rep.ops(shards, failed_shards);
  rep.digest(json);
  rep.check("sweep.failed_shards_zero", failed_shards == 0,
            str(static_cast<double>(failed_shards)));
  rep.check("sweep.json_identical_across_calls", json_stable, "");

  // Output and regime checks per grid point.
  for (const sweep::PointResult& pr : first.points) {
    const sweep::GridPoint& p = pr.point;
    const std::string name = point_name(p);
    // CC-FPR misses and inversions are expected: recorded, not checked.
    const bool edf = p.protocol == sweep::Protocol::kCcrEdf;
    if (edf && fault_free(p)) {
      rep.check("rt.user_misses_zero " + name,
                pr.stat(Metric::kUserMisses).max() == 0.0,
                str(pr.stat(Metric::kUserMisses).max()));
    }
    if (edf && p.churn > 0.0 && p.ber == 0.0) {
      rep.check("churn.disjoint_misses_zero " + name,
                pr.stat(Metric::kChurnDisjointMisses).max() == 0.0,
                str(pr.stat(Metric::kChurnDisjointMisses).max()));
    }
    if (p.ber > 0.0) {
      rep.check("regime.recoveries " + name,
                pr.stat(Metric::kRecoveries).min() > 0.0,
                str(pr.stat(Metric::kRecoveries).min()));
    }
    if (p.churn > 0.0) {
      rep.check("regime.churn_downs " + name,
                pr.stat(Metric::kChurnDowns).min() > 0.0,
                str(pr.stat(Metric::kChurnDowns).min()));
    }
  }

  // Fault-free replicas: bit-exact against their shards, and the source
  // of the per-layer engine counters.  The saturation cells run once more
  // with an observer sampling transmit-queue depth.
  NetCounters counters;
  std::vector<double> open_s;
  std::vector<double> run_slots_s;
  {
    const ScopedSpan span(tr, "verify.replicas");
    for (const sweep::PointResult& pr : first.points) {
      const sweep::GridPoint& p = pr.point;
      if (!fault_free(p)) continue;
      std::unique_ptr<Replica> r = replicate(spec, p);
      {
        const ScopedSpan run(tr, "net.run_slots");
        const auto t0 = Clock::now();
        r->net->run_slots(spec.slots);
        run_slots_s.push_back(seconds_since(t0));
      }
      counters.add(*r->net);
      rep.profile("ff_slot_frac " + point_name(p),
                  r->net->stats().fast_forward_ratio());
      open_s.insert(open_s.end(), r->open_s.begin(), r->open_s.end());
      rep.check("verify.replica_matches_shard " + point_name(p),
                replica_matches(*r->net, pr), "");
      if (p.mix != sweep::WorkloadMix::kSaturation) continue;

      std::vector<double> depth;  // outlives the observing network
      const std::unique_ptr<Replica> observed = replicate(spec, p);
      net::Network& n = *observed->net;
      n.add_slot_observer([&depth, &n](const net::SlotRecord&) {
        for (const NodeId j : n.queued_nodes()) {
          depth.push_back(static_cast<double>(n.node(j).queues().size()));
        }
      });
      n.run_slots(spec.slots);
      rep.check("regime.saturation_depth_p90 " + point_name(p),
                quantile(depth, 0.9) >= kSaturationDepthFloor,
                str(quantile(depth, 0.9)));
    }
  }
  double ccfpr_misses = 0.0;
  double ccfpr_inversions = 0.0;
  for (const sweep::PointResult& pr : first.points) {
    if (pr.point.protocol != sweep::Protocol::kCcFpr) continue;
    ccfpr_misses += pr.stat(Metric::kUserMisses).sum();
    ccfpr_inversions += pr.stat(Metric::kInversions).sum();
  }
  rep.profile("ccfpr_user_misses", ccfpr_misses);
  rep.profile("ccfpr_priority_inversions", ccfpr_inversions);
  rep.profile("workers", w);
  rep.profile("shards_per_call", static_cast<double>(spec.shard_count()));
  rep.profile("slots_per_shard", static_cast<double>(spec.slots));
  rep.profile("calls", static_cast<double>(plain_s.size() + traced_s.size()));
  rep.profile("recoveries", total(first, Metric::kRecoveries));
  rep.profile("churn_downs", total(first, Metric::kChurnDowns));

  if (!opt.trace) {
    rep.metric("slots_per_s", slots_per_call / fastest(plain_s), "1/s");
    rep.metric("shards_per_s",
               static_cast<double>(spec.shard_count()) / fastest(plain_s),
               "1/s");
    rep.metric("setup_s", fastest(setup_s), "s");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run.
  counters.report(rep);
  rep.metric("net.run_slots_ns", median(run_slots_s) * 1e9, "ns");
  rep.metric("core.admission.open_us", median(open_s) * 1e6, "us");
  rep.metric("fault.recoveries", total(first, Metric::kRecoveries), "count");
  rep.metric("services.churn_downs", total(first, Metric::kChurnDowns),
             "count");
  rep.metric("trace.overhead_frac", fastest(traced_s) / fastest(plain_s) - 1.0,
             "frac");
  const double ns_per_slot = 1e9 / slots_per_call;
  rep.metric("net.ns_per_slot_p50", median(plain_s) * ns_per_slot, "ns");
  rep.metric("net.ns_per_slot_p90", quantile(plain_s, 0.9) * ns_per_slot,
             "ns");

  // Per-shard cost, serially; the slowest shard sets a sweep's tail.
  std::vector<double> shard_s;
  {
    const ScopedSpan span(tr, "sweep.shards");
    for (const sweep::GridPoint& p : points) {
      const ScopedSpan shard(tr, "sweep.run_shard");
      const auto t0 = Clock::now();
      const sweep::ShardMetrics m = sweep::run_shard(spec, p, 0);
      shard_s.push_back(seconds_since(t0));
      if (!m.ok) rep.check("sweep.run_shard_ok " + point_name(p), false, "");
    }
  }
  double serial = 0.0;
  for (const double s : shard_s) serial += s;
  rep.metric("sweep.shard_s_p50", quantile(shard_s, 0.5), "s");
  rep.metric("sweep.shard_s_p90", quantile(shard_s, 0.9), "s");
  rep.metric("sweep.parallel_efficiency",
             serial / (static_cast<double>(w) * fastest(plain_s)), "frac");

  // Layer inputs: the 16-node CCR-EDF saturation cell (deep EDF queues,
  // busy arbitration) and mixed cell (release + arrival events).
  const auto cell = [&](sweep::WorkloadMix mix) {
    for (const sweep::GridPoint& p : points) {
      if (p.protocol == sweep::Protocol::kCcrEdf && p.nodes == 16 &&
          p.mix == mix && fault_free(p)) {
        return p;
      }
    }
    throw std::runtime_error("sweep-mixed: grid lacks a capture cell");
  };
  Capture sat;
  const std::unique_ptr<Replica> sat_net =
      replicate(spec, cell(sweep::WorkloadMix::kSaturation));
  Capture mixed;
  const std::unique_ptr<Replica> mixed_net =
      replicate(spec, cell(sweep::WorkloadMix::kMixed));
  {
    const ScopedSpan span(tr, "capture");
    sat.attach(*sat_net->net);
    sat_net->net->run_slots(spec.slots);
    mixed.attach(*mixed_net->net);
    mixed_net->net->run_slots(spec.slots);
  }
  const ArbiterReplay arb = replay_arbiter(sat, *sat_net->net, tr);
  rep.metric("core.arbiter.ns_per_call", arb.ns_per_call, "ns");
  rep.metric("core.arbiter.candidates_per_call", arb.candidates_per_call,
             "count");
  const EdfReplay edf = replay_edf(sat, tr);
  rep.metric("core.edf.push_ns", edf.push_ns, "ns");
  rep.metric("core.edf.head_ns", edf.head_ns, "ns");
  rep.metric("core.edf.consume_ns", edf.consume_ns, "ns");
  rep.metric("core.edf.depth_p50", quantile(sat.depth, 0.5), "count");
  rep.metric("core.edf.depth_p90", quantile(sat.depth, 0.9), "count");
  rep.metric("sim.event_queue_ns_per_op", replay_simulator(mixed, tr), "ns");

  // Planner probe: the busy periodic set on the grid's 16-node ring (the
  // grid's own periods span decades, past the planner's hyperperiod cap).
  const net::Network& ring16 = *mixed_net->net;
  const int streams =
      static_cast<int>(0.9 * ring16.admission().u_max() * 32.0);
  const PlannerTiming plan =
      time_planner(ring16, busy_set(16, 32, streams, opt.seed), tr);
  rep.check("planner.probe_valid", plan.valid, "");
  rep.metric("core.planner.build_ms", plan.build_ms, "ms");
  rep.metric("core.planner.lookup_ns", plan.lookup_ns, "ns");
}

}  // namespace perfbench
