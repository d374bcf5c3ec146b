// E24: severed-segment fault model -- partition-aware degraded mode and
// staged ring healing (hard link cuts through fault::FaultInjector, the
// ResilienceMonitor's segment-down quarantine, and the link_cuts sweep
// axis).
//
// E24a  containment: an admitted periodic RT set runs through one full
//       cut -> detect -> quarantine -> splice -> re-admit cycle of the
//       highest link.  Connections whose transmission segment avoids
//       the cut link must miss ZERO user deadlines across the whole
//       horizon -- a severed link may only ever hurt traffic that
//       crosses it (exit 1 otherwise).  Invariants riding along:
//       in-protocol detection latency is at most 2 slots per cut (the
//       next collection phase carries the truncated-heard evidence),
//       every segment quarantine releases exactly its Eq. 5/6 weight
//       (error <= 1e-9), the capacity derate hits the closed-form 0.5
//       while severed and restores to 1.0 after the splice, and the
//       loop actually cycled (segment_downs > 0, readmissions > 0).
// E24b  ring-dark parking: a second simultaneous cut partitions the
//       ring; the clock must park (ring_dark slots counted, nothing
//       granted) and resume cleanly after both splices.
// E24c  determinism: a link_cuts-axis grid must serialise to
//       byte-identical JSON with 1 and 8 worker threads, with
//       fast-forward on and off, AND with the hypercycle planner
//       enabled (cut cells never build a plan, so the slot-by-slot
//       fallback must be byte-exact too) -- exit 1 otherwise.
//
// Flags: --quick (1e5-slot horizon instead of 2e6), --json <path>
// (BENCH_link_fault.json).
#include "bench_common.hpp"

#include <string>
#include <thread>
#include <vector>

#include "fault/injector.hpp"
#include "ring/segment.hpp"
#include "services/resilience.hpp"
#include "sweep/report.hpp"
#include "sweep/runner.hpp"

using namespace ccredf;
using namespace ccredf::bench;

namespace {

constexpr NodeId kNodes = 8;
constexpr LinkId kCutLink = kNodes - 1;  // anchor = node 0, the restarter

struct CutRun {
  int admitted = 0;
  int disjoint_count = 0;
  std::int64_t disjoint_user_misses = 0;
  std::int64_t crossing_user_misses = 0;
  std::int64_t link_cuts = 0;
  std::int64_t cut_detect_slots = 0;
  double capacity_while_severed = 0.0;
  double capacity_after_splice = 0.0;
  services::ResilienceStats monitor;
};

CutRun run_cycle(std::int64_t horizon_slots) {
  net::NetworkConfig cfg = make_config(kNodes, Protocol::kCcrEdf);
  cfg.record_inboxes = false;
  net::Network n(cfg);

  fault::FaultInjector injector(n);
  services::ResilienceMonitor monitor(n, services::ResilienceParams{});

  workload::PeriodicSetParams wp;
  wp.nodes = kNodes;
  wp.connections = 16;
  wp.total_utilisation = 0.5 * n.timing().u_max();
  wp.min_period_slots = 20;
  wp.max_period_slots = 120;
  wp.seed = 24;

  CutRun res;
  std::vector<ConnectionId> disjoint;
  std::vector<ConnectionId> crossing;
  const LinkSet cut = LinkSet::single(kCutLink);
  for (const auto& c : workload::make_periodic_set(wp)) {
    const auto open = n.open_connection(c);
    if (!open.admitted) continue;
    ++res.admitted;
    const auto links =
        ring::Segment::for_transmission(n.topology(), c.source, c.dests)
            .links();
    (links.intersects(cut) ? crossing : disjoint).push_back(open.id);
  }
  res.disjoint_count = static_cast<int>(disjoint.size());

  // One full severed-segment cycle placed mid-horizon: cut for the
  // middle fifth of the run, healed tail long enough to re-admit and
  // settle.  Wall-clock instants (the injector's events bound the
  // engine's fast-forward automatically).
  const sim::Duration extent = n.timing().slot_plus_max_gap();
  const sim::TimePoint cut_at =
      sim::TimePoint::origin() + extent * (horizon_slots * 2 / 5);
  const sim::TimePoint splice_at =
      sim::TimePoint::origin() + extent * (horizon_slots * 3 / 5);
  injector.schedule_link_cut(kCutLink, cut_at);
  injector.schedule_link_splice(kCutLink, splice_at);

  // Sample the derated capacity while the cut is in effect (run_for
  // stops on wall time, so this lands strictly inside the severed
  // window), then finish the horizon.
  n.run_for((cut_at + extent * 50) - sim::TimePoint::origin());
  res.capacity_while_severed = n.admission().capacity_factor();
  n.run_slots(horizon_slots - n.current_slot());
  res.capacity_after_splice = n.admission().capacity_factor();

  for (const ConnectionId id : disjoint) {
    res.disjoint_user_misses += n.connection_stats(id).user_misses;
  }
  for (const ConnectionId id : crossing) {
    res.crossing_user_misses += n.connection_stats(id).user_misses;
  }
  res.link_cuts = n.stats().faults.link_cuts;
  res.cut_detect_slots = n.stats().faults.cut_detect_slots;
  res.monitor = monitor.stats();
  return res;
}

struct DarkRun {
  std::int64_t ring_dark = 0;
  std::int64_t delivered_after_heal = 0;
};

DarkRun run_ring_dark() {
  net::NetworkConfig cfg = make_config(kNodes, Protocol::kCcrEdf);
  net::Network n(cfg);
  n.run_slots(50);
  if (!n.cut_link(2)) std::abort();
  if (!n.cut_link(5)) std::abort();
  n.run_slots(200);  // partitioned: every slot parks dark
  DarkRun res;
  res.ring_dark = n.stats().faults.ring_dark;
  if (!n.splice_link(2)) std::abort();
  if (!n.splice_link(5)) std::abort();
  const std::int64_t before =
      n.stats().cls(core::TrafficClass::kBestEffort).delivered;
  n.send_best_effort(1, NodeSet::single(6), 1,
                     sim::Duration::milliseconds(50));
  n.run_slots(50);
  res.delivered_after_heal =
      n.stats().cls(core::TrafficClass::kBestEffort).delivered - before;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = parse_flags(argc, argv);
  JsonDoc doc("link_fault");
  bool ok = true;

  header("E24",
         "Severed-segment fault model: partition-aware degraded mode "
         "and staged ring healing",
         "Section 8 (failure handling) extended to hard link cuts");

  const std::int64_t horizon = flags.quick ? 100'000 : 2'000'000;
  const CutRun r = run_cycle(horizon);

  // -- E24a: containment through one full cut/splice cycle ----------------
  analysis::Table a(
      "E24a: containment across cut -> detect -> quarantine -> splice -> "
      "re-admit (8 nodes, RT load 0.5 U_max, link " +
      std::to_string(kCutLink) + " cut for the middle fifth, horizon " +
      std::to_string(horizon) + " slots)");
  a.columns({"quantity", "value"});
  a.row().cell("RT connections admitted").cell(r.admitted);
  a.row().cell("cut-disjoint connections").cell(r.disjoint_count);
  a.row().cell("cut-disjoint user misses").cell(r.disjoint_user_misses);
  a.row().cell("cut-crossing user misses").cell(r.crossing_user_misses);
  a.row().cell("link cuts applied").cell(r.link_cuts);
  a.row().cell("cut detection latency (slots)").cell(r.cut_detect_slots);
  a.row().cell("segment-down events").cell(r.monitor.segment_downs);
  a.row()
      .cell("transfers segment-quarantined")
      .cell(r.monitor.segment_quarantines);
  a.row()
      .cell("weight reclaimed (sum)")
      .cell(r.monitor.weight_reclaimed, 4);
  a.row().cell("reclaim error (max)").cell(r.monitor.reclaim_error, 12);
  a.row()
      .cell("capacity factor while severed")
      .cell(r.capacity_while_severed, 2);
  a.row()
      .cell("capacity factor after splice")
      .cell(r.capacity_after_splice, 2);
  a.row().cell("re-admissions").cell(r.monitor.readmissions);
  a.note("a severed link may only hurt traffic whose segment crosses it: "
         "the cut-disjoint set's user-miss count must be exactly zero "
         "through the whole cycle, detection rides the very next "
         "collection phase, and the quarantine reclaims exactly the Eq. "
         "5/6 weight of the closed transfers");
  a.print(std::cout);

  doc.set("horizon_slots", static_cast<double>(horizon));
  doc.set("rt_connections", static_cast<double>(r.admitted));
  doc.set("disjoint_connections", static_cast<double>(r.disjoint_count));
  doc.set("disjoint_user_misses",
          static_cast<double>(r.disjoint_user_misses));
  doc.set("crossing_user_misses",
          static_cast<double>(r.crossing_user_misses));
  doc.set("link_cuts", static_cast<double>(r.link_cuts));
  doc.set("cut_detect_slots", static_cast<double>(r.cut_detect_slots));
  doc.set("segment_downs", static_cast<double>(r.monitor.segment_downs));
  doc.set("segment_quarantines",
          static_cast<double>(r.monitor.segment_quarantines));
  doc.set("weight_reclaimed", r.monitor.weight_reclaimed);
  doc.set("weight_readmitted", r.monitor.weight_readmitted);
  doc.set("reclaim_error", r.monitor.reclaim_error);
  doc.set("capacity_while_severed", r.capacity_while_severed);
  doc.set("capacity_after_splice", r.capacity_after_splice);
  doc.set("readmissions", static_cast<double>(r.monitor.readmissions));

  if (r.disjoint_count <= 0) {
    std::cerr << "E24a FAIL: workload produced no cut-disjoint "
                 "connections -- the containment gate tested nothing\n";
    ok = false;
  }
  if (r.disjoint_user_misses != 0) {
    std::cerr << "E24a FAIL: " << r.disjoint_user_misses
              << " user misses on connections whose segment avoids the "
                 "cut link\n";
    ok = false;
  }
  if (r.link_cuts != 1 || r.monitor.segment_downs <= 0 ||
      r.monitor.segment_quarantines <= 0 || r.monitor.readmissions <= 0) {
    std::cerr << "E24a FAIL: the severed-segment loop never cycled "
                 "(cuts = "
              << r.link_cuts << ", segment_downs = "
              << r.monitor.segment_downs << ", segment_quarantines = "
              << r.monitor.segment_quarantines
              << ", readmissions = " << r.monitor.readmissions << ")\n";
    ok = false;
  }
  if (r.cut_detect_slots < 1 || r.cut_detect_slots > 2 * r.link_cuts) {
    std::cerr << "E24a FAIL: in-protocol cut detection took "
              << r.cut_detect_slots
              << " slots; the next collection phase must carry the "
                 "evidence (<= 2 per cut)\n";
    ok = false;
  }
  if (r.monitor.reclaim_error > 1e-9) {
    std::cerr << "E24a FAIL: segment quarantine released weight diverges "
                 "from the utilisation drop by "
              << r.monitor.reclaim_error << "\n";
    ok = false;
  }
  if (r.capacity_while_severed != 0.5 || r.capacity_after_splice != 1.0) {
    std::cerr << "E24a FAIL: capacity derate/restore cycle broken "
                 "(severed = "
              << r.capacity_while_severed
              << ", healed = " << r.capacity_after_splice << ")\n";
    ok = false;
  }

  // -- E24b: double cut parks the ring dark -------------------------------
  const DarkRun d = run_ring_dark();
  std::cout << "E24b: double cut parked " << d.ring_dark
            << " ring-dark slots; after both splices the healed ring "
            << "delivered " << d.delivered_after_heal << " message(s)\n";
  doc.set("ring_dark_slots", static_cast<double>(d.ring_dark));
  doc.set("delivered_after_heal",
          static_cast<double>(d.delivered_after_heal));
  if (d.ring_dark <= 0) {
    std::cerr << "E24b FAIL: a partitioned ring never parked dark\n";
    ok = false;
  }
  if (d.delivered_after_heal != 1) {
    std::cerr << "E24b FAIL: the healed ring failed to deliver\n";
    ok = false;
  }

  // -- E24c: link_cuts-axis sweep determinism -----------------------------
  sweep::GridSpec spec;
  spec.node_counts = {kNodes};
  spec.utilisations = {0.5};
  spec.link_cuts = {0, 1};
  spec.cut_slot = 500;
  spec.cut_down_slots = 400;
  spec.repetitions = 2;
  spec.slots = flags.quick ? 1500 : 4000;
  spec.min_period_slots = 10;
  spec.max_period_slots = 120;
  spec.base_seed = 24;
  const std::string json_1t =
      sweep::to_json(sweep::run_sweep(spec, {.threads = 1}));
  const std::string json_8t =
      sweep::to_json(sweep::run_sweep(spec, {.threads = 8}));
  sweep::GridSpec noff = spec;
  noff.fast_forward = false;
  const std::string json_noff =
      sweep::to_json(sweep::run_sweep(noff, {.threads = 1}));
  sweep::GridSpec planner = spec;
  planner.planners = {true};
  const std::string planner_1t =
      sweep::to_json(sweep::run_sweep(planner, {.threads = 1}));
  const std::string planner_8t =
      sweep::to_json(sweep::run_sweep(planner, {.threads = 8}));
  const bool threads_identical = json_1t == json_8t;
  const bool ff_identical = json_1t == json_noff;
  const bool planner_identical = planner_1t == planner_8t;
  std::cout << "E24c: link-cut sweep 1-thread vs 8-thread JSON: "
            << (threads_identical ? "byte-identical" : "MISMATCH")
            << "; fast-forward vs slot-by-slot JSON: "
            << (ff_identical ? "byte-identical" : "MISMATCH")
            << "; planner-on 1 vs 8 threads: "
            << (planner_identical ? "byte-identical" : "MISMATCH") << "\n";
  doc.set("threads_json_identical", threads_identical ? 1.0 : 0.0);
  doc.set("ff_json_identical", ff_identical ? 1.0 : 0.0);
  doc.set("planner_json_identical", planner_identical ? 1.0 : 0.0);
  if (!threads_identical) {
    std::cerr << "E24c FAIL: link-cut sweep output depends on thread "
                 "count\n";
    ok = false;
  }
  if (!ff_identical) {
    std::cerr << "E24c FAIL: link-cut sweep output depends on the "
                 "fast-forward engine\n";
    ok = false;
  }
  if (!planner_identical) {
    std::cerr << "E24c FAIL: planner-enabled cut cells diverge across "
                 "thread counts\n";
    ok = false;
  }

  doc.set("hardware_threads",
          static_cast<double>(std::thread::hardware_concurrency()));

  if (!flags.json_path.empty()) {
    if (!doc.write(flags.json_path)) {
      std::cerr << "bench_link_fault: cannot write " << flags.json_path
                << "\n";
      return 1;
    }
  }
  return ok ? 0 : 1;
}
