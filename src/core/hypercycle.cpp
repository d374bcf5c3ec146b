#include "core/hypercycle.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

#include "ring/segment.hpp"

namespace ccredf::core {

namespace {

/// A layout backlog this deep means the registered set is hopelessly
/// over-subscribed; bail out instead of going quadratic.
constexpr std::size_t kMaxBacklog = 4096;

/// Cycles simulated before giving up on offset contraction (see
/// feasible()).  Real plans contract within a handful of cycles (the
/// first wait re-anchors the dominating cursor onto the release grid);
/// a cursor still drifting forward after this many cycles is heading
/// for a deadline miss anyway.
constexpr std::int64_t kMaxCycleProbe = 1024;

/// lcm(a, b) clamped to `cap`; 0 signals overflow or over-cap.
std::int64_t lcm_capped(std::int64_t a, std::int64_t b, std::int64_t cap) {
  const std::int64_t g = std::gcd(a, b);
  const std::int64_t a_red = a / g;
  if (a_red > cap / b) return 0;
  const std::int64_t l = a_red * b;
  return l > cap ? 0 : l;
}

/// One unfinished job in the layout's ready list, EDF-ordered.
struct ReadyJob {
  std::int64_t deadline = 0;  // absolute grid slot
  NodeId source = kInvalidNode;
  ConnectionId conn_id = kNoConnection;
  std::int64_t job = 0;  // index within its connection
  std::uint32_t ci = 0;  // index into conns_
  std::int64_t release = 0;
  std::int64_t remaining = 0;

  [[nodiscard]] bool before(const ReadyJob& o) const {
    if (deadline != o.deadline) return deadline < o.deadline;
    if (source != o.source) return source < o.source;
    if (conn_id != o.conn_id) return conn_id < o.conn_id;
    return job < o.job;
  }
};

}  // namespace

HypercyclePlanner::HypercyclePlanner(const phy::RingPhy* phy,
                                     ring::RingTopology topo,
                                     sim::Duration slot_time, Config cfg)
    : phy_(phy),
      topo_(topo),
      handover_(phy),
      t_slot_(slot_time),
      cfg_(cfg) {}

void HypercyclePlanner::clear() {
  conns_.clear();
  valid_ = false;
  reason_ = "not built";
}

void HypercyclePlanner::add(ConnectionId id, const ConnectionParams& params,
                            std::int64_t base_slot) {
  const ring::Segment seg =
      ring::Segment::for_transmission(topo_, params.source, params.dests);
  ConnInfo c;
  c.id = id;
  c.source = params.source;
  c.hops = seg.hops();
  c.links = seg.links();
  c.dests = seg.dests();
  c.path_delay = phy_->path_delay(params.source, seg.hops());
  c.size = params.size_slots;
  c.period = params.period_slots;
  c.deadline = params.effective_deadline_slots();
  c.base = base_slot;
  conns_.push_back(c);
  valid_ = false;
  reason_ = "not built";
}

double HypercyclePlanner::planned_utilisation() const {
  double u = 0.0;
  for (const ConnInfo& c : conns_) {
    u += static_cast<double>(c.size) / static_cast<double>(c.period);
  }
  return u;
}

bool HypercyclePlanner::fail(const char* reason) {
  valid_ = false;
  reason_ = reason;
  return false;
}

bool HypercyclePlanner::build(sim::TimePoint anchor_start,
                              NodeId anchor_master) {
  valid_ = false;
  hyper_ = 0;
  cycle_origin_ = 0;
  prefix_.clear();
  cycle_.clear();
  grants_.clear();
  slot_table_.clear();
  conn_index_.clear();

  if (conns_.empty()) return fail("no planned connections");
  // The bundle tie-break keys below use connection ids, so the plan is
  // a pure function of the registered SET, not the registration order.
  std::sort(conns_.begin(), conns_.end(),
            [](const ConnInfo& a, const ConnInfo& b) { return a.id < b.id; });

  std::int64_t hyper = 1;
  for (const ConnInfo& c : conns_) {
    // The cursor model relies on at most one outstanding job per
    // connection (the engine binds its oldest held message).
    if (c.deadline > c.period) return fail("deadline beyond period");
    hyper = lcm_capped(hyper, c.period, cfg_.max_hyperperiod_slots);
    if (hyper == 0) return fail("hyperperiod exceeds cap");
  }
  hyper_ = hyper;

  std::int64_t s0 = conns_.front().base;
  for (const ConnInfo& c : conns_) s0 = std::min(s0, c.base);

  std::vector<Bundle> bundles;
  std::vector<Grant> grants;
  std::vector<std::int64_t> grant_jobs;
  if (!layout(bundles, grants, grant_jobs, s0, s0 + 4 * hyper_)) {
    return false;
  }
  cycle_origin_ = s0 + 2 * hyper_ + 1;
  if (!extract_steady_state(bundles, grants, grant_jobs)) return false;
  if (!feasible(anchor_start, anchor_master)) return false;

  ConnectionId max_id = 0;
  for (const ConnInfo& c : conns_) max_id = std::max(max_id, c.id);
  conn_index_.assign(static_cast<std::size_t>(max_id) + 1, -1);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    conn_index_[conns_[i].id] = static_cast<std::int32_t>(i);
  }
  valid_ = true;
  reason_ = "";
  return true;
}

bool HypercyclePlanner::layout(std::vector<Bundle>& bundles,
                               std::vector<Grant>& grants,
                               std::vector<std::int64_t>& grant_jobs,
                               std::int64_t s0, std::int64_t horizon_end) {
  // Min-heap of (next release slot, connection index).
  using Release = std::pair<std::int64_t, std::uint32_t>;
  std::vector<Release> heap;
  heap.reserve(conns_.size());
  std::vector<std::int64_t> next_job(conns_.size(), 0);
  const auto heap_cmp = std::greater<Release>{};
  for (std::uint32_t ci = 0; ci < conns_.size(); ++ci) {
    if (conns_[ci].base <= horizon_end - 1) {
      heap.emplace_back(conns_[ci].base, ci);
    }
  }
  std::make_heap(heap.begin(), heap.end(), heap_cmp);

  std::vector<ReadyJob> ready;
  std::vector<std::size_t> finished;

  std::int64_t s = s0 + 1;
  while (s <= horizon_end) {
    // Jobs released by the end of slot s-1 are grantable in slot s.
    while (!heap.empty() && heap.front().first <= s - 1) {
      std::pop_heap(heap.begin(), heap.end(), heap_cmp);
      const auto [r, ci] = heap.back();
      heap.pop_back();
      const ConnInfo& c = conns_[ci];
      ReadyJob j;
      j.deadline = r + c.deadline;
      j.source = c.source;
      j.conn_id = c.id;
      j.job = next_job[ci]++;
      j.ci = ci;
      j.release = r;
      j.remaining = c.size;
      if (ready.size() >= kMaxBacklog) return fail("planner backlog overflow");
      ready.insert(std::upper_bound(ready.begin(), ready.end(), j,
                                    [](const ReadyJob& a, const ReadyJob& b) {
                                      return a.before(b);
                                    }),
                   j);
      const std::int64_t next_r = r + c.period;
      if (next_r <= horizon_end - 1) {
        heap.emplace_back(next_r, ci);
        std::push_heap(heap.begin(), heap.end(), heap_cmp);
      }
    }

    if (ready.empty()) {
      if (heap.empty()) break;
      // Idle stretch: jump straight to the first slot that can grant
      // the next release.
      s = std::max(s + 1, heap.front().first + 1);
      continue;
    }

    // Greedy EDF packing, mirroring Arbiter: the head job's source
    // masters the slot; further jobs join while their segments stay
    // link-disjoint and avoid the master's clock-break link.
    Bundle b;
    b.layout_slot = s;
    b.master = conns_[ready[0].ci].source;
    b.release_slot = ready[0].release;
    b.first_grant = static_cast<std::uint32_t>(grants.size());
    const LinkId brk = topo_.break_link(b.master);
    LinkSet taken;
    finished.clear();
    for (std::size_t k = 0; k < ready.size(); ++k) {
      const ConnInfo& c = conns_[ready[k].ci];
      if (k > 0) {
        if (!cfg_.spatial_reuse) break;
        if (b.granted.contains(c.source)) continue;
        if (c.links.intersects(taken)) continue;
        if (c.links.contains(brk)) continue;
      }
      Grant g;
      g.conn = c.id;
      g.source = c.source;
      g.hops = c.hops;
      g.links = c.links;
      g.dests = c.dests;
      g.release_slot = ready[k].release;
      g.deadline_slots = c.deadline;
      g.path_delay = c.path_delay;
      g.completes = --ready[k].remaining == 0;
      grants.push_back(g);
      grant_jobs.push_back(ready[k].job);
      taken |= c.links;
      b.granted.insert(c.source);
      b.release_slot = std::max(b.release_slot, ready[k].release);
      if (g.completes) finished.push_back(k);
    }
    b.grant_count = static_cast<std::uint32_t>(grants.size()) - b.first_grant;
    bundles.push_back(b);
    for (auto it = finished.rbegin(); it != finished.rend(); ++it) {
      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(*it));
    }
    ++s;
  }
  return true;
}

bool HypercyclePlanner::extract_steady_state(
    const std::vector<Bundle>& bundles, const std::vector<Grant>& grants,
    const std::vector<std::int64_t>& grant_jobs) {
  // bundles is sorted by layout_slot; windows 3 and 4 are the slot
  // ranges [cycle_origin_, +H) and [cycle_origin_ + H, +2H).
  const std::int64_t w3 = cycle_origin_;
  const std::int64_t w4 = cycle_origin_ + hyper_;
  std::size_t i3 = 0;
  while (i3 < bundles.size() && bundles[i3].layout_slot < w3) ++i3;
  std::size_t i4 = i3;
  while (i4 < bundles.size() && bundles[i4].layout_slot < w4) ++i4;
  const std::size_t n3 = i4 - i3;
  const std::size_t n4 = bundles.size() - i4;
  if (n3 == 0) return fail("empty steady-state window");
  if (n3 != n4) return fail("no steady-state pattern");

  // Window 4 must be window 3 shifted H slots, with every job index
  // advanced by that connection's jobs-per-cycle -- the certificate
  // that the layout has entered a periodic orbit.
  for (std::size_t k = 0; k < n3; ++k) {
    const Bundle& a = bundles[i3 + k];
    const Bundle& b = bundles[i4 + k];
    if (b.layout_slot != a.layout_slot + hyper_ || b.master != a.master ||
        b.grant_count != a.grant_count) {
      return fail("no steady-state pattern");
    }
    for (std::uint32_t g = 0; g < a.grant_count; ++g) {
      const Grant& ga = grants[a.first_grant + g];
      const Grant& gb = grants[b.first_grant + g];
      const ConnInfo& c = conns_[static_cast<std::size_t>(
          std::lower_bound(conns_.begin(), conns_.end(), ga.conn,
                           [](const ConnInfo& ci, ConnectionId id) {
                             return ci.id < id;
                           }) -
          conns_.begin())];
      if (gb.conn != ga.conn || gb.completes != ga.completes ||
          grant_jobs[b.first_grant + g] !=
              grant_jobs[a.first_grant + g] + hyper_ / c.period) {
        return fail("no steady-state pattern");
      }
    }
  }

  // Throughput balance: each cyclic window must complete exactly one
  // hyperperiod's worth of jobs per connection, else some job is
  // starved or dragging (either way, not a schedule to trust forever).
  for (const ConnInfo& c : conns_) {
    const std::int64_t jobs_per_cycle = hyper_ / c.period;
    std::int64_t completes = 0;
    std::int64_t slots = 0;
    for (std::size_t k = i3; k < i4; ++k) {
      for (std::uint32_t g = 0; g < bundles[k].grant_count; ++g) {
        const Grant& gr = grants[bundles[k].first_grant + g];
        if (gr.conn != c.id) continue;
        ++slots;
        if (gr.completes) ++completes;
      }
    }
    if (completes != jobs_per_cycle || slots != jobs_per_cycle * c.size) {
      return fail("steady-state window out of balance");
    }
  }

  // Emit the final plan: prefix in absolute coordinates, one cyclic
  // window re-coded relative to cycle_origin_.
  for (std::size_t k = 0; k < i3; ++k) {
    Bundle b = bundles[k];
    const std::uint32_t first = b.first_grant;
    b.first_grant = static_cast<std::uint32_t>(grants_.size());
    for (std::uint32_t g = 0; g < b.grant_count; ++g) {
      grants_.push_back(grants[first + g]);
    }
    prefix_.push_back(b);
  }
  slot_table_.assign(static_cast<std::size_t>(hyper_), -1);
  for (std::size_t k = i3; k < i4; ++k) {
    Bundle b = bundles[k];
    const std::uint32_t first = b.first_grant;
    b.layout_slot -= cycle_origin_;
    b.release_slot -= cycle_origin_;
    b.first_grant = static_cast<std::uint32_t>(grants_.size());
    for (std::uint32_t g = 0; g < b.grant_count; ++g) {
      Grant gr = grants[first + g];
      gr.release_slot -= cycle_origin_;
      grants_.push_back(gr);
    }
    slot_table_[static_cast<std::size_t>(b.layout_slot)] =
        static_cast<std::int32_t>(cycle_.size());
    cycle_.push_back(b);
  }
  return true;
}

bool HypercyclePlanner::feasible(sim::TimePoint anchor_start,
                                 NodeId anchor_master) {
  // Integer re-enactment of the cursor execution model (header comment)
  // from the engine state the plan will engage at -- run as a DOMINATING
  // trajectory, not the exact one.  The exact cursor lands anywhere in
  // [eligible, eligible + wait_step) after a wait stretch, so the
  // slot-start offsets from the nominal grid perform a rotation by
  // (H * t_slot mod wait_step) per cycle -- an exact (offset, master)
  // recurrence can take millions of cycles or never happen at all.
  // Instead, bound every slot start by max(t, eligible + wait_step).
  // That step is monotone and dominates every exact step from any
  // earlier-or-equal start, so once the cycle-boundary offset stops
  // increasing (off_n <= off_{n-1}) every later cycle is pointwise
  // dominated by an already-checked one and all deadlines hold forever.
  // The pessimism is < one wait step per waiting bundle: a schedule
  // that only works with sub-wait-step slack is rejected back to TCMA
  // (never a wrong admission).
  const sim::TimePoint origin = sim::TimePoint::origin();
  const sim::Duration g0 = handover_.gap(anchor_master, anchor_master);
  const sim::Duration wait_step = t_slot_ + g0;
  sim::TimePoint t = anchor_start;
  NodeId m = anchor_master;

  const auto exec = [&](const Bundle& b, std::int64_t rel_base) {
    const sim::TimePoint eligible =
        origin + t_slot_ * (b.release_slot + rel_base);
    if (eligible + wait_step > t) t = eligible + wait_step;
    const sim::TimePoint exec_start = t + t_slot_ + handover_.gap(m, b.master);
    const sim::TimePoint exec_end = exec_start + t_slot_;
    const Grant* gs = grants_.data() + b.first_grant;
    for (std::uint32_t g = 0; g < b.grant_count; ++g) {
      if (!gs[g].completes) continue;
      const sim::TimePoint deadline =
          origin +
          t_slot_ * (gs[g].release_slot + rel_base + gs[g].deadline_slots);
      if (exec_end + gs[g].path_delay > deadline) return false;
    }
    t = exec_start;
    m = b.master;
    return true;
  };

  for (const Bundle& b : prefix_) {
    if (!exec(b, 0)) return fail("plan misses a deadline");
  }
  std::int64_t prev_off = 0;
  for (std::int64_t n = 0; n < kMaxCycleProbe; ++n) {
    const sim::TimePoint nominal =
        origin + t_slot_ * (cycle_origin_ + n * hyper_);
    const std::int64_t off = (t - nominal).ps();
    if (n > 0 && off <= prev_off) return true;
    prev_off = off;
    for (const Bundle& b : cycle_) {
      if (!exec(b, cycle_origin_ + n * hyper_)) {
        return fail("plan misses a deadline");
      }
    }
  }
  return fail("no steady-state fixed point");
}

}  // namespace ccredf::core
