// E21: Constant-Bandwidth-Server isolation and fairness (paper section
// 3's three service classes, realised with the CBS of core/cbs.hpp on
// top of the guaranteed class the paper analyses).
//
// E21a  hard-RT isolation: the same admitted periodic RT set runs twice
//       over the same wall-clock horizon -- once alone, once beside a
//       CBS population saturated far past its reserved bandwidth.  The
//       per-connection RT digest (released / scheduling misses / user
//       misses, in admission order) must be BYTE-IDENTICAL and the RT
//       set must miss nothing in either run: CBS jobs ride the
//       best-effort band under server deadlines, so saturating them may
//       never perturb a hard guarantee (exit 1 otherwise).
// E21b  bandwidth fairness: the saturated population's per-flow
//       delivered bytes must reach a Jain index >= 0.9 across >= 8
//       admitted flows (identical reservations -> near-identical
//       shares), and budget-exhaustion postponements must actually have
//       fired -- a saturation run that never exhausts a budget tested
//       nothing (exit 1 otherwise).
// E21c  determinism: a grid with the `services` axis (rt-only and
//       cbs-saturated) must serialise to byte-identical JSON with 1 and
//       8 worker threads (exit 1 otherwise).
//
// Flags: --quick (short horizon), --json <path>
// (BENCH_cbs_fairness.json).
#include "bench_common.hpp"

#include <string>
#include <thread>
#include <vector>

#include "services/cbs.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"
#include "workload/aperiodic.hpp"

using namespace ccredf;
using namespace ccredf::bench;

namespace {

constexpr NodeId kNodes = 8;
constexpr int kBeFlows = 8;
constexpr std::int64_t kBudgetSlots = 2;
constexpr std::int64_t kPeriodSlots = 100;

/// The hard-RT set both runs share: moderate load, roomy deadlines --
/// the admitted set must be cleanly schedulable so any miss in the
/// CBS-saturated run is an isolation failure, not a tight-fit artefact.
workload::PeriodicSetParams rt_workload(double u_max) {
  workload::PeriodicSetParams wp;
  wp.nodes = kNodes;
  wp.connections = 16;
  wp.total_utilisation = 0.5 * u_max;
  wp.min_period_slots = 20;
  wp.max_period_slots = 120;
  wp.seed = 21;
  return wp;
}

struct IsolationRun {
  /// Per-connection "released/sched_misses/user_misses" records in
  /// admission order -- wall-keyed releases and (expected-zero) misses
  /// only, so the digest is insensitive to where the horizon cuts an
  /// in-flight delivery.
  std::string rt_digest;
  std::int64_t rt_released = 0;
  std::int64_t rt_sched_misses = 0;
  std::int64_t rt_user_misses = 0;
  int rt_admitted = 0;
  int be_admitted = 0;
  std::int64_t cbs_jobs = 0;
  std::int64_t cbs_delivered = 0;
  std::int64_t cbs_bytes = 0;
  std::int64_t postponements = 0;
  double jain = 0.0;
  std::vector<std::int64_t> flow_bytes;
};

IsolationRun run_case(bool with_cbs, std::int64_t horizon_slots) {
  net::NetworkConfig cfg = make_config(kNodes, Protocol::kCcrEdf);
  // Sustained overload needs a bounded transmit buffer: an unbounded
  // best-effort backlog grows for the whole horizon (and with it the
  // sorted-EDF insert cost).  Drops at the cap never touch the server
  // state, so the CBS accounting is unaffected.
  cfg.max_queue_messages = 256;
  net::Network n(cfg);

  std::vector<ConnectionId> rt_ids;
  IsolationRun res;
  for (const auto& c : workload::make_periodic_set(rt_workload(
           n.timing().u_max()))) {
    const auto open = n.open_connection(c);
    if (open.admitted) rt_ids.push_back(open.id);
  }
  res.rt_admitted = static_cast<int>(rt_ids.size());

  const sim::Duration extent = n.timing().slot_plus_max_gap();
  std::optional<services::CbsFlowSet> flows;
  std::optional<workload::AperiodicGenerator> gen;
  if (with_cbs) {
    services::CbsFlowSetParams cp;
    cp.flows = kBeFlows;
    cp.budget_slots = kBudgetSlots;
    cp.period_slots = kPeriodSlots;
    flows.emplace(n, cp);
    res.be_admitted = flows->admitted();

    // Saturation: each flow offers ~0.5 slots per slot extent against a
    // 0.02 reservation (25x overload), so every server lives in
    // budget-exhaustion postponement while the per-node transmit buffers
    // stay shallow enough that no source drowns in its own backlog.
    workload::AperiodicParams ap;
    ap.rate_per_flow = 0.2;
    ap.min_size_slots = 1;
    ap.max_size_slots = 4;
    ap.seed = 2121;
    gen.emplace(n, flows->ids(), ap,
                sim::TimePoint::origin() + extent * horizon_slots);
  }

  // Identical WALL horizon for both cases: periodic releases are keyed
  // to wall instants, so the two runs release the exact same RT message
  // set no matter how best-effort traffic shifts the hand-over gaps.
  n.run_for(extent * horizon_slots);

  for (const ConnectionId id : rt_ids) {
    const auto& cs = n.connection_stats(id);
    res.rt_digest += std::to_string(cs.released) + "/" +
                     std::to_string(cs.scheduling_misses) + "/" +
                     std::to_string(cs.user_misses) + ";";
    res.rt_released += cs.released;
    res.rt_sched_misses += cs.scheduling_misses;
    res.rt_user_misses += cs.user_misses;
  }
  if (flows.has_value()) {
    res.cbs_jobs = n.stats().cbs.jobs;
    res.postponements = n.stats().cbs.postponements;
    res.jain = flows->jain_index();
    for (const ConnectionId id : flows->ids()) {
      const auto& cs = n.connection_stats(id);
      res.cbs_delivered += cs.delivered;
      res.cbs_bytes += cs.bytes;
      res.flow_bytes.push_back(cs.bytes);
    }
  }
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parse_flags(argc, argv);
  JsonDoc doc("cbs_fairness");
  bool ok = true;

  header("E21", "CBS service class: hard-RT isolation and best-effort "
                "fairness under saturation",
         "Section 3 (service classes) + CBS isolation theorem");

  const std::int64_t horizon = flags.quick ? 6'000 : 20'000;
  const IsolationRun alone = run_case(false, horizon);
  const IsolationRun shared = run_case(true, horizon);

  // -- E21a: byte-identical hard-RT digest --------------------------------
  const bool digest_identical = alone.rt_digest == shared.rt_digest;
  analysis::Table a(
      "E21a: hard-RT set alone vs beside a saturated CBS population "
      "(8 nodes, RT load 0.5 U_max, 8 servers at Q=2/T=100, same wall "
      "horizon)");
  a.columns({"run", "RT conns", "released", "sched misses", "user misses",
             "digest"});
  a.row()
      .cell("rt only")
      .cell(alone.rt_admitted)
      .cell(alone.rt_released)
      .cell(alone.rt_sched_misses)
      .cell(alone.rt_user_misses)
      .cell("--");
  a.row()
      .cell("rt + cbs sat.")
      .cell(shared.rt_admitted)
      .cell(shared.rt_released)
      .cell(shared.rt_sched_misses)
      .cell(shared.rt_user_misses)
      .cell(digest_identical ? "identical" : "MISMATCH");
  a.note("CBS jobs carry server deadlines in the best-effort band; the "
         "RT band wins every arbitration it enters, so saturating the "
         "servers leaves the per-connection RT accounting byte-identical");
  a.print(std::cout);

  doc.set("rt_digest_identical", digest_identical ? 1.0 : 0.0);
  doc.set("rt_connections", static_cast<double>(alone.rt_admitted));
  doc.set("rt_released", static_cast<double>(alone.rt_released));
  doc.set("rt_sched_misses_alone",
          static_cast<double>(alone.rt_sched_misses));
  doc.set("rt_sched_misses_shared",
          static_cast<double>(shared.rt_sched_misses));
  doc.set("rt_user_misses_alone", static_cast<double>(alone.rt_user_misses));
  doc.set("rt_user_misses_shared",
          static_cast<double>(shared.rt_user_misses));
  if (!digest_identical) {
    std::cerr << "E21a FAIL: per-connection RT digest changed when the "
                 "CBS population saturated the ring\n";
    ok = false;
  }
  if (alone.rt_user_misses != 0 || shared.rt_user_misses != 0 ||
      alone.rt_sched_misses != 0 || shared.rt_sched_misses != 0) {
    std::cerr << "E21a FAIL: hard-RT set missed deadlines (expected a "
                 "cleanly schedulable set in both runs)\n";
    ok = false;
  }

  // -- E21b: fairness across the saturated flows --------------------------
  analysis::Table b("E21b: per-flow delivered bytes under saturation");
  b.columns({"flow", "bytes", "share"});
  for (std::size_t f = 0; f < shared.flow_bytes.size(); ++f) {
    b.row()
        .cell(static_cast<std::int64_t>(f))
        .cell(shared.flow_bytes[f])
        .pct(shared.cbs_bytes == 0
                 ? 0.0
                 : static_cast<double>(shared.flow_bytes[f]) /
                       static_cast<double>(shared.cbs_bytes),
             2);
  }
  b.note("identical reservations (Q=2/T=100 each) must earn "
         "near-identical shares: Jain = " +
         std::to_string(shared.jain));
  b.print(std::cout);

  doc.set("be_flows", static_cast<double>(shared.be_admitted));
  doc.set("flows=8,jain_index", shared.jain);
  doc.set("cbs_jobs", static_cast<double>(shared.cbs_jobs));
  doc.set("cbs_delivered", static_cast<double>(shared.cbs_delivered));
  doc.set("cbs_postponements", static_cast<double>(shared.postponements));
  if (shared.be_admitted < kBeFlows) {
    std::cerr << "E21b FAIL: only " << shared.be_admitted << " of "
              << kBeFlows << " CBS servers admitted beside the RT set\n";
    ok = false;
  }
  if (shared.jain < 0.9) {
    std::cerr << "E21b FAIL: Jain index " << shared.jain
              << " below the 0.9 fairness floor\n";
    ok = false;
  }
  if (shared.postponements <= 0) {
    std::cerr << "E21b FAIL: no budget-exhaustion postponements -- the "
                 "saturation run never stressed the servers\n";
    ok = false;
  }

  // -- E21c: thread-count determinism of the services axis ----------------
  sweep::GridSpec spec;
  spec.node_counts = {8};
  spec.utilisations = {0.5};
  spec.mixes = {sweep::WorkloadMix::kPeriodic};
  spec.services = {sweep::ServiceMix::kRtOnly,
                   sweep::ServiceMix::kCbsSaturated};
  spec.repetitions = 2;
  spec.slots = flags.quick ? 400 : 1200;
  spec.min_period_slots = 10;
  spec.max_period_slots = 120;
  spec.base_seed = 21;
  const std::string json_1t =
      sweep::to_json(sweep::run_sweep(spec, {.threads = 1}));
  const std::string json_8t =
      sweep::to_json(sweep::run_sweep(spec, {.threads = 8}));
  const bool identical = json_1t == json_8t;
  std::cout << "E21c: services-axis sweep 1-thread vs 8-thread JSON: "
            << (identical ? "byte-identical" : "MISMATCH") << "\n";
  doc.set("threads_json_identical", identical ? 1.0 : 0.0);
  if (!identical) {
    std::cerr << "E21c FAIL: services-axis sweep output depends on "
                 "thread count\n";
    ok = false;
  }

  doc.set("hardware_threads",
          static_cast<double>(std::thread::hardware_concurrency()));

  if (!flags.json_path.empty()) {
    if (!doc.write(flags.json_path)) {
      std::cerr << "bench_cbs_fairness: cannot write " << flags.json_path
                << "\n";
      return 1;
    }
  }
  return ok ? 0 : 1;
}
