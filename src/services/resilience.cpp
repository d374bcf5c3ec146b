#include "services/resilience.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ring/segment.hpp"

namespace ccredf::services {

ResilienceMonitor::ResilienceMonitor(net::Network& net,
                                     ResilienceParams params)
    : net_(net), params_(params) {
  params_.validate();
  suspect_window_ = params_.suspect_window_slots > 0
                        ? params_.suspect_window_slots
                        : params_.detection_window_slots / 2;
  const auto is_monitor = [](const net::SlotListener* l) {
    return dynamic_cast<const ResilienceMonitor*>(l) != nullptr;
  };
  const auto& attached = net_.listeners();
  CCREDF_EXPECT(std::none_of(attached.begin(), attached.end(), is_monitor),
                "resilience: a monitor is already attached");
  const SlotIndex s = net_.current_slot();
  for (NodeId j = 0; j < net_.nodes(); ++j) {
    tracked_[j].last_heard = s - 1;  // zero miss at attachment
  }
  anchor_ = s;
  tokens_ = params_.readmit_burst;
  net_.attach(*this);
}

ConnectionId ResilienceMonitor::current_incarnation(ConnectionId id) const {
  ConnectionId cur = id;
  auto it = incarnation_.find(cur);
  while (it != incarnation_.end()) {
    cur = it->second;
    if (cur == kNoConnection) return kNoConnection;  // still queued
    it = incarnation_.find(cur);
  }
  return cur;
}

void ResilienceMonitor::on_slot(const net::SlotRecord& rec) {
  const SlotIndex s = rec.index;
  if (net_.severed_links() != severed_seen_) sync_severed(s);
  for (NodeId j : rec.heard) heard_node(j, s);
  NodeSet unheard = net_.topology().all_nodes() & ~rec.heard;
  if (!severed_seen_.empty() && !rec.heard.empty()) {
    // Degraded collection truncates at the first severed link in
    // collection order: nodes beyond it wrote no record REGARDLESS of
    // health, so their silence is not evidence.  The contiguous
    // unreachable suffix is excused rather than suspected -- this is
    // what distinguishes the cut's classified loss pattern from a node
    // death's isolated gap.
    const auto& topo = net_.topology();
    NodeId reach = static_cast<NodeId>(net_.nodes() - 1);
    for (const NodeId l : severed_seen_) {
      reach = std::min(reach, topo.hops(rec.master, l));
    }
    for (NodeId h = reach + 1; h < net_.nodes(); ++h) {
      unheard.erase(topo.downstream(rec.master, h));
    }
  }
  for (NodeId j : unheard) {
    Tracked& t = tracked_[j];
    if (t.state == NodeState::kDown) continue;
    const SlotIndex miss = s - t.last_heard;
    if (miss > params_.detection_window_slots) {
      declare_down(j, s);
    } else if (t.state == NodeState::kUp && miss > suspect_window_) {
      t.state = NodeState::kSuspect;
      ++stats_.suspects;
    }
  }
  if (!queue_.empty()) drain_readmissions(s);
}

void ResilienceMonitor::on_skip(SlotIndex first, std::int64_t k,
                                NodeSet heard) {
  // Every skipped slot evidenced exactly `heard`; unheard nodes cannot
  // cross a detection deadline inside the window (next_deadline_slot
  // bounded the skip), and no DOWN node can sit in `heard` (a live down
  // node forbids skipping entirely), so batching is exact.
  const SlotIndex last = first + k - 1;
  for (NodeId j : heard) {
    Tracked& t = tracked_[j];
    CCREDF_EXPECT(t.state != NodeState::kDown,
                  "resilience: reappearance hidden in a fast-forward");
    t.state = NodeState::kUp;
    t.last_heard = last;
  }
}

SlotIndex ResilienceMonitor::next_deadline_slot(SlotIndex from,
                                                SlotIndex limit) {
  if (net_.severed_links() != severed_seen_) {
    // A cut or splice the monitor has not acted on yet: the very next
    // slot performs the quarantine / renegotiation, so nothing may be
    // skipped over it.  (Scheduled link events inside the window bound
    // the skip via the simulator's event queue; this guard covers the
    // hand-off slot itself.)
    return from;
  }
  SlotIndex bound = limit;
  const NodeSet failed = net_.failed_nodes();
  for (NodeId j = 0; j < net_.nodes(); ++j) {
    const Tracked& t = tracked_[j];
    if (t.state == NodeState::kDown) {
      // A live down node is about to be heard again -- the reappearance
      // (and the queue eligibility it flips) must be simulated.
      if (!failed.contains(j)) return from;
      continue;  // still dead: stays down, nothing to observe
    }
    if (!failed.contains(j)) continue;  // heard every skipped slot
    // Failed but not yet declared: a detection deadline lies ahead.
    const std::int64_t win = t.state == NodeState::kUp
                                 ? suspect_window_
                                 : params_.detection_window_slots;
    bound = std::min(bound, std::max(from, t.last_heard + win + 1));
  }
  if (!queue_.empty()) {
    // A drainable entry means token-bucket pacing and admission re-runs
    // happen on upcoming slots; simulate them (the queue empties in
    // bounded time, so this cannot pin the engine permanently).
    for (const PendingReadmit& p : queue_) {
      if (p.segment) {
        // Segment entries drain once their links are spliced (and the
        // source is not separately down); until then they are inert and
        // cannot pin the engine to slot-by-slot execution.
        if (!p.cut_links.intersects(severed_seen_) &&
            tracked_[p.node].state != NodeState::kDown) {
          return from;
        }
        continue;
      }
      if (tracked_[p.node].state != NodeState::kDown) return from;
    }
  }
  return bound;
}

void ResilienceMonitor::heard_node(NodeId j, SlotIndex s) {
  Tracked& t = tracked_[j];
  if (t.state == NodeState::kDown) ++stats_.reappearances;
  t.state = NodeState::kUp;
  t.last_heard = s;
}

void ResilienceMonitor::declare_down(NodeId j, SlotIndex s) {
  Tracked& t = tracked_[j];
  t.state = NodeState::kDown;
  ++stats_.downs;
  stats_.detection_latency_slots.add(s - t.last_heard);
  quarantine(NodeSet::single(j), s, /*segment=*/false);
}

void ResilienceMonitor::sync_severed(SlotIndex s) {
  const LinkSet severed = net_.severed_links();
  const bool fresh_cut = !(severed & ~severed_seen_).empty();
  severed_seen_ = severed;
  // Order matters: quarantine releases weight against the OLD capacity,
  // then the renegotiation derates the bound -- the reclaim-exactness
  // invariant is measured before the bound moves.
  if (fresh_cut) {
    ++stats_.segment_downs;
    quarantine(net_.topology().all_nodes(), s, /*segment=*/true);
  }
  renegotiate_capacity();
}

double ResilienceMonitor::weight(const PendingReadmit& p) const {
  return p.is_cbs ? net_.admission().weight(p.cbs.admission_params())
                  : net_.admission().weight(p.rt);
}

void ResilienceMonitor::quarantine(NodeSet sources, SlotIndex s,
                                   bool segment) {
  const double u_before = net_.admission().utilisation();
  double released = 0.0;
  // Closes one transfer sourced at `j` through the normal teardown path
  // and parks it for re-admission; a segment quarantine spares the
  // transfers whose segment crosses no severed link.
  const auto close_and_park = [&](NodeId j, ConnectionId id,
                                  PendingReadmit p) {
    if (segment) {
      const NodeSet dests = p.is_cbs ? p.cbs.dests : p.rt.dests;
      p.cut_links =
          ring::Segment::for_transmission(net_.topology(), j, dests).links() &
          severed_seen_;
      if (p.cut_links.empty()) return;
      ++stats_.segment_quarantines;
    } else {
      ++(p.is_cbs ? stats_.servers_quarantined
                  : stats_.connections_quarantined);
    }
    released += weight(p);
    net_.close_connection(id);
    incarnation_[id] = kNoConnection;
    p.node = j;
    p.former_id = id;
    p.eligible = s;
    p.segment = segment;
    queue_.push_back(std::move(p));
  };
  for (const NodeId j : sources) {
    for (const auto& c : net_.connections_of(j)) {
      close_and_park(j, c.id, {.rt = c.params});
    }
    for (const auto& srv : net_.cbs_servers_of(j)) {
      close_and_park(j, srv.id, {.is_cbs = true, .cbs = srv.params});
    }
  }
  stats_.weight_reclaimed += released;
  const double err =
      std::abs((u_before - net_.admission().utilisation()) - released);
  if (err > stats_.reclaim_error) stats_.reclaim_error = err;
}

void ResilienceMonitor::renegotiate_capacity() {
  // Derate Eq. 6 to the surviving-region capacity: the fraction of
  // ordered (src, dst) pairs whose arc avoids every severed link.
  // Closed form for any single cut on any ring size: exactly 0.5 (for
  // each source at h hops before the cut, precisely h of its n-1
  // destinations stay reachable; h sweeps 0..n-1 over the sources).
  double f = 1.0;
  if (!severed_seen_.empty()) {
    const auto& topo = net_.topology();
    const NodeId n = net_.nodes();
    std::int64_t ok = 0;
    for (NodeId a = 0; a < n; ++a) {
      for (NodeId b = 0; b < n; ++b) {
        if (a == b) continue;
        bool crosses = false;
        for (const NodeId l : severed_seen_) {
          // The arc a -> b rides the links of nodes at hops 0..hops-1.
          if (topo.hops(a, l) < topo.hops(a, b)) {
            crosses = true;
            break;
          }
        }
        if (!crosses) ++ok;
      }
    }
    f = static_cast<double>(ok) /
        static_cast<double>(std::int64_t{n} * (n - 1));
  }
  if (f == net_.admission().capacity_factor()) return;
  net_.admission().set_capacity_factor(f);
}

std::int64_t ResilienceMonitor::tokens_at(SlotIndex s) const {
  const std::int64_t refills = (s - anchor_) / params_.readmit_interval_slots;
  return std::min<std::int64_t>(params_.readmit_burst, tokens_ + refills);
}

void ResilienceMonitor::drain_readmissions(SlotIndex s) {
  std::int64_t avail = tokens_at(s);
  if (avail <= 0) return;
  bool spent = false;
  for (auto it = queue_.begin(); it != queue_.end() && avail > 0;) {
    PendingReadmit& p = *it;
    // Entries stay parked while their node is down, their cut links
    // unspliced (segment entries) or their back-off running; the queue
    // is scanned front-to-back so the oldest eligible entry wins the
    // token (FIFO fairness within the staging).
    if (tracked_[p.node].state == NodeState::kDown || s < p.eligible ||
        (p.segment && p.cut_links.intersects(severed_seen_))) {
      ++it;
      continue;
    }
    --avail;
    spent = true;
    ++stats_.readmit_attempts;
    const net::Network::OpenResult r =
        p.is_cbs ? net_.open_cbs_server(p.cbs) : net_.open_connection(p.rt);
    if (r.admitted) {
      ++stats_.readmissions;
      stats_.weight_readmitted += weight(p);
      incarnation_[p.former_id] = r.id;
      it = queue_.erase(it);
    } else {
      ++stats_.readmit_rejections;
      const std::int64_t shift = std::min<std::int64_t>(p.rejections, 30);
      p.eligible = s + std::min(params_.backoff_slots << shift,
                                params_.max_backoff_slots);
      ++p.rejections;
      ++it;
    }
  }
  if (spent) {
    tokens_ = avail;
    anchor_ = s;
  }
}

}  // namespace ccredf::services
