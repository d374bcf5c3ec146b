#include "net/network.hpp"

#include <algorithm>
#include <limits>

#include "net/ccredf_protocol.hpp"
#include "ring/segment.hpp"

namespace ccredf::net {

namespace {
std::unique_ptr<phy::RingPhy> make_phy(const NetworkConfig& cfg) {
  if (!cfg.link_lengths_m.empty()) {
    return std::make_unique<phy::RingPhy>(cfg.link, cfg.link_lengths_m);
  }
  return std::make_unique<phy::RingPhy>(cfg.link, cfg.nodes,
                                        cfg.link_length_m);
}

/// The listener behind add_slot_observer: one function call per slot.
class FunctionListener final : public SlotListener {
 public:
  explicit FunctionListener(Network::SlotObserver f) : f_(std::move(f)) {}
  void on_slot(const SlotRecord& rec) override { f_(rec); }

 private:
  Network::SlotObserver f_;
};
}  // namespace

SlotListener::~SlotListener() {
  if (attached_to_ != nullptr) attached_to_->detach(*this);
}

Network::Network(NetworkConfig cfg)
    : cfg_(std::move(cfg)),
      phy_(make_phy(cfg_)),
      topo_(cfg_.nodes),
      admission_(0.0) {
  CCREDF_EXPECT(cfg_.nodes >= 2 && cfg_.nodes <= kMaxNodes,
                "Network: node count out of range");
  CCREDF_EXPECT(phy_->nodes() == cfg_.nodes,
                "Network: link length list does not match node count");
  CCREDF_EXPECT(cfg_.designated_restarter < cfg_.nodes,
                "Network: designated restarter out of range");
  CCREDF_EXPECT(cfg_.recovery_timeout_slots >= 1,
                "Network: recovery timeout must be at least one slot");
  CCREDF_EXPECT(cfg_.linear_quantum_slots >= 0,
                "Network: linear laxity quantum must not be negative");

  // The NACK bits extend the ack field, so they exist only when both the
  // payload CRC and the ack wire are enabled (config.hpp).
  codec_ = std::make_unique<core::FrameCodec>(
      cfg_.nodes, cfg_.priority, cfg_.with_acks, cfg_.with_frame_crc,
      cfg_.with_acks && cfg_.with_payload_crc);
  std::int64_t payload = cfg_.slot_payload_bytes;
  if (payload == 0) {
    // Auto payload: the exact control-phase budget.  Eq. 2 counts only
    // propagation + passthrough; the collection packet's own bits (one
    // control bit rides per payload byte) and the distribution packet
    // must also fit the slot -- a constraint Eq. 2 leaves implicit and
    // which dominates on short rings.  Explicitly configured payloads
    // are only held to the paper's Eq. 2 (SlotTiming validates).
    payload = std::max(core::SlotTiming::min_payload_bytes(*phy_) +
                           codec_->collection_bits() +
                           codec_->distribution_bits(),
                       cfg_.default_payload_floor);
  }
  timing_ = std::make_unique<core::SlotTiming>(*phy_, payload);
  control_ = std::make_unique<core::ControlTiming>(
      phy_.get(), codec_->collection_bits(), codec_->distribution_bits());
  if (cfg_.protocol_factory) {
    protocol_ = cfg_.protocol_factory(*phy_, topo_, cfg_);
  } else {
    protocol_ = std::make_unique<CcrEdfProtocol>(phy_.get(), topo_,
                                                 cfg_.spatial_reuse);
  }
  CCREDF_EXPECT(protocol_ != nullptr, "Network: protocol factory failed");
  // Eq. 6: the admission bound always uses the CCR-EDF worst-case gap
  // (the paper's analysis); baseline runs admit the same sets so that E6
  // compares protocols on identical load.
  admission_ =
      core::AdmissionController(timing_->u_max(), cfg_.admission_policy);
  if (cfg_.planner) {
    core::HypercyclePlanner::Config pcfg;
    pcfg.max_hyperperiod_slots = cfg_.planner_max_hyperperiod_slots;
    pcfg.spatial_reuse = cfg_.spatial_reuse;
    planner_ = std::make_unique<core::HypercyclePlanner>(
        phy_.get(), topo_, timing_->slot(), pcfg);
  }

  nodes_.reserve(cfg_.nodes);
  for (NodeId i = 0; i < cfg_.nodes; ++i) {
    nodes_.emplace_back(i);
    nodes_.back().set_inbox_recording(cfg_.record_inboxes);
  }
  // Per-slot scratch: at most one request and one completed delivery per
  // node per slot, so this capacity is final.
  rec_.requests.assign(cfg_.nodes, core::Request{});
  rec_.deliveries.reserve(cfg_.nodes);
  rec_.corrupt_deliveries.reserve(cfg_.nodes);
  stats_.per_node_faults.resize(cfg_.nodes);
  stats_.node_requests.assign(cfg_.nodes, 0);
  stats_.node_grants.assign(cfg_.nodes, 0);

  // Collection sampling offsets depend only on (master, node): precompute
  // the full table once so the per-slot path never recomputes a path
  // delay.  Offsets grow with hop count, so each master's furthest node
  // (hop N-1) carries its last-sample offset.
  sample_off_.resize(static_cast<std::size_t>(cfg_.nodes) * cfg_.nodes);
  for (NodeId m = 0; m < cfg_.nodes; ++m) {
    for (NodeId h = 0; h < cfg_.nodes; ++h) {
      const NodeId j = topo_.downstream(m, h);
      sample_off_[static_cast<std::size_t>(m) * cfg_.nodes + j] =
          control_->sample_offset(m, h);
    }
    last_sample_off_[m] =
        sample_off_[static_cast<std::size_t>(m) * cfg_.nodes +
                    topo_.downstream(m, cfg_.nodes - 1)];
  }
  // Hand-over gaps depend only on (from, to) as well.
  gap_.resize(sample_off_.size());
  for (NodeId from = 0; from < cfg_.nodes; ++from) {
    for (NodeId to = 0; to < cfg_.nodes; ++to) {
      gap_[static_cast<std::size_t>(from) * cfg_.nodes + to] =
          protocol_->gap(from, to);
    }
  }
}

Network::~Network() {
  for (SlotListener* l : listeners_) {
    if (l != nullptr) l->attached_to_ = nullptr;
  }
}

void Network::attach(SlotListener& l) {
  CCREDF_EXPECT(l.attached_to_ == nullptr,
                "Network: listener is already attached");
  listeners_.push_back(&l);
  l.attached_to_ = this;
}

void Network::detach(SlotListener& l) {
  if (l.attached_to_ != this) return;
  l.attached_to_ = nullptr;
  if (fault_hook_ == &l) fault_hook_ = nullptr;
  *std::find(listeners_.begin(), listeners_.end(), &l) = nullptr;
  if (!notifying_) std::erase(listeners_, nullptr);
}

template <typename F>
void Network::notify(F&& f) {
  notifying_ = true;
  for (std::size_t i = 0, n = listeners_.size(); i < n; ++i) {
    if (SlotListener* l = listeners_[i]) f(*l);
  }
  notifying_ = false;
  std::erase(listeners_, nullptr);
}

void Network::add_slot_observer(SlotObserver obs) {
  observers_.push_back(std::make_unique<FunctionListener>(std::move(obs)));
  attach(*observers_.back());
}

void Network::set_fault_hook(FaultHook& hook) {
  if (fault_hook_ != nullptr) detach(*fault_hook_);
  attach(hook);
  fault_hook_ = &hook;
  mark_plan_diverged();
}

Node& Network::node(NodeId id) {
  CCREDF_EXPECT(id < nodes_.size(), "Network: node index out of range");
  return nodes_[id];
}

NodeSet Network::broadcast_dests(NodeId src) const {
  NodeSet all = topo_.all_nodes();
  all.erase(src);
  return all;
}

core::Priority Network::priority_of(const core::Message& m,
                                    sim::TimePoint sample) const {
  const std::int64_t laxity = m.laxity_slots(sample, timing_->slot());
  return core::map_laxity(cfg_.priority, m.traffic_class, laxity,
                          cfg_.linear_quantum_slots);
}

MessageId Network::enqueue(NodeId src, NodeSet dests, core::TrafficClass cls,
                           std::int64_t size_slots, sim::TimePoint deadline,
                           ConnectionId conn, sim::TimePoint arrival) {
  CCREDF_EXPECT(src < nodes_.size(), "enqueue: bad source");
  CCREDF_EXPECT(size_slots >= 1, "enqueue: size must be >= 1 slot");
  CCREDF_EXPECT(!dests.empty() && dests.is_subset_of(topo_.all_nodes()) &&
                    !dests.contains(src),
                "enqueue: destinations must be non-empty ring nodes other "
                "than src");
  // No message is queued ahead of its arrival, so every sample finds its
  // node's queued messages eligible and EdfQueueSet looks only near the
  // front of each class.
  CCREDF_ASSERT(arrival <= sim_.now());
  bool hold = false;
  if (plan_engaged()) {
    // A planned release stays with its connection; any other traffic
    // (plain sends, CBS jobs) is outside the plan: the precomputed
    // outcomes no longer model the wire -- back to slot-by-slot TCMA.
    hold = conn != kNoConnection && planner_->is_planned(conn);
    if (!hold) mark_plan_diverged();
  }
  const MessageId id = next_message_id_++;
  if (soa_.failed.contains(src)) return id;  // dropped: source is down
  if (cfg_.max_queue_messages != 0 &&
      cls != core::TrafficClass::kRealTime &&
      waiting_messages(src) >= cfg_.max_queue_messages) {
    ++stats_.buffer_drops;  // tail drop at a full transmit buffer
    return id;
  }
  core::Message m;
  m.id = id;
  m.source = src;
  m.dests = dests;
  m.traffic_class = cls;
  m.size_slots = size_slots;
  m.remaining_slots = size_slots;
  m.arrival = arrival;
  m.deadline = deadline;
  m.connection = conn;
  m.payload_bytes = size_slots * timing_->payload_bytes();
  if (hold) {
    conns_[conn].held.push_back(std::move(m));
    ++soa_.held_count[src];
    soa_.holding.insert(src);
  } else {
    nodes_[src].queues().push(std::move(m));
  }
  soa_.queued.insert(src);
  return id;
}

void Network::refresh_queued_bit(NodeId src) {
  if (waiting_messages(src) == 0) soa_.queued.erase(src);
}

void Network::flush_held() {
  // EDF order is a total order on (deadline, arrival, id), so the queues
  // end up exactly as if every held message had been pushed at release.
  for (ConnState& c : conns_) {
    for (core::Message& m : c.held) {
      nodes_[c.source].queues().push(std::move(m));
    }
    c.held.clear();
  }
  soa_.holding = NodeSet{};
  soa_.held_count.fill(0);
}

void Network::drop_held(ConnState& c) {
  soa_.held_count[c.source] -= c.held.size();
  if (soa_.held_count[c.source] == 0) soa_.holding.erase(c.source);
  c.held.clear();
}

MessageId Network::send(NodeId src, NodeSet dests, core::TrafficClass cls,
                        std::int64_t size_slots,
                        sim::Duration relative_deadline) {
  const sim::TimePoint deadline =
      relative_deadline >= sim::Duration::infinity()
          ? sim::TimePoint::infinity()
          : sim_.now() + relative_deadline;
  return enqueue(src, dests, cls, size_slots, deadline, kNoConnection,
                 sim_.now());
}

MessageId Network::send_best_effort(NodeId src, NodeSet dests,
                                    std::int64_t size_slots,
                                    sim::Duration relative_deadline) {
  return send(src, dests, core::TrafficClass::kBestEffort, size_slots,
              relative_deadline);
}

MessageId Network::send_non_realtime(NodeId src, NodeSet dests,
                                     std::int64_t size_slots) {
  return send(src, dests, core::TrafficClass::kNonRealTime, size_slots,
              sim::Duration::infinity());
}

Network::OpenResult Network::open_connection(
    const core::ConnectionParams& params) {
  CCREDF_EXPECT(params.source < nodes_.size(), "connection: bad source");
  CCREDF_EXPECT(!params.dests.empty() &&
                    params.dests.is_subset_of(topo_.all_nodes()),
                "connection: destinations must be non-empty ring nodes");
  CCREDF_EXPECT(!params.dests.contains(params.source),
                "connection: source cannot be a destination");
  auto decision = admission_.request(params);
  bool planner_admit = false;
  if (!decision.admitted) {
    if (!plan_can_build()) return OpenResult{false, kNoConnection};
    // Eq. 5 charges every connection e_i/P_i of per-SLOT capacity, but
    // spatial reuse packs several segment-disjoint grants into one slot
    // -- so the planner may still find an exact schedule past U_max.
    // Admit tentatively; the constructive proof below decides.
    decision = admission_.admit_unchecked(params);
    planner_admit = true;
  }

  const ConnectionId id = decision.id;
  ConnState& c = new_conn(id);
  c.kind = ConnState::Kind::kRealTime;
  c.source = params.source;
  c.params = params;
  c.base = sim_.now() + timing_->slot() * params.offset_slots;
  sim_.arm(c.base, *this, id);
  rebuild_plan();
  if (planner_admit) {
    if (!plan_valid_) {
      // The layout/feasibility proof failed: the Eq. 5 rejection stands.
      sim_.disarm(*this, id);
      c.kind = ConnState::Kind::kClosed;
      admission_.release(c.params);
      rebuild_plan();
      return OpenResult{false, kNoConnection};
    }
  }
  return OpenResult{true, id};
}

void Network::fire_release(ConnectionId id) {
  ConnState& c = conns_[id];
  const core::ConnectionParams& p = c.params;
  const sim::TimePoint release_t = next_release(c);
  const sim::TimePoint deadline =
      release_t + timing_->slot() * p.effective_deadline_slots();
  // The arrival is the nominal release instant: the key fires exactly
  // there, and the plan-driven table may catch up at the next slot
  // boundary without skewing latency accounting.
  (void)enqueue(p.source, p.dests, core::TrafficClass::kRealTime,
                p.size_slots, deadline, id, release_t);
  ++stats_of(id).released;
  ++c.released;
}

sim::TimePoint Network::arrive(std::uint32_t id) {
  CCREDF_ASSERT(conns_[id].kind == ConnState::Kind::kRealTime);
  fire_release(id);
  // The clamp only bites when a restored key is catching up on more than
  // one deferred release; on the steady path the next release is later.
  return std::max(next_release(conns_[id]), sim_.now());
}

bool Network::close_connection(ConnectionId id) {
  if (id >= conns_.size() || conns_[id].kind == ConnState::Kind::kClosed) {
    return false;
  }
  ConnState& c = conns_[id];
  if (c.kind == ConnState::Kind::kRealTime) {
    sim_.disarm(*this, id);
    drop_held(c);
  } else {
    --open_cbs_;
  }
  c.kind = ConnState::Kind::kClosed;
  nodes_[c.source].queues().drop_connection(id);
  refresh_queued_bit(c.source);
  admission_.release(c.params);
  // Any in-effect plan covered the closed connection: re-derive (a
  // mid-run close leaves released>0 peers, so this lands on TCMA).
  rebuild_plan();
  return true;
}

Network::OpenResult Network::open_cbs_server(const core::CbsParams& params) {
  params.validate();
  CCREDF_EXPECT(params.source < nodes_.size(), "cbs: bad source");
  CCREDF_EXPECT(params.dests.is_subset_of(topo_.all_nodes()),
                "cbs: destinations must be ring nodes");
  const core::ConnectionParams weighed = params.admission_params();
  const auto decision = admission_.request(weighed);
  if (!decision.admitted) return OpenResult{false, kNoConnection};
  ConnState& c = new_conn(decision.id);
  c.kind = ConnState::Kind::kCbs;
  c.source = params.source;
  c.params = weighed;
  c.server.emplace(params, timing_->slot());
  ++open_cbs_;
  ++stats_.cbs.servers_opened;
  // CBS jobs are aperiodic: no plan can cover them (rebuild_plan gates
  // on an empty server set, so this invalidates any current plan).
  rebuild_plan();
  return OpenResult{true, decision.id};
}

MessageId Network::cbs_send(ConnectionId id, std::int64_t size_slots) {
  CCREDF_EXPECT(cbs_server(id) != nullptr,
                "cbs_send: unknown or closed server");
  ConnState& c = conns_[id];
  const core::CbsParams& p = c.server->params();
  if (soa_.failed.contains(p.source) ||
      (cfg_.max_queue_messages != 0 &&
       waiting_messages(p.source) >= cfg_.max_queue_messages)) {
    // Mirror enqueue's drop rules up front: a job the queue will refuse
    // must not recharge the budget or move the server deadline (the
    // enqueue call still does the drop accounting and burns the id).
    return enqueue(p.source, p.dests, core::TrafficClass::kBestEffort,
                   size_slots, sim_.now(), id, sim_.now());
  }
  const sim::TimePoint deadline =
      c.server->on_arrival(sim_.now(), c.backlog > 0);
  const MessageId mid =
      enqueue(p.source, p.dests, core::TrafficClass::kBestEffort, size_slots,
              deadline, id, sim_.now());
  ++c.backlog;
  ++stats_.cbs.jobs;
  ++stats_of(id).released;
  return mid;
}

const core::CbsServer* Network::cbs_server(ConnectionId id) const {
  if (id >= conns_.size() || conns_[id].kind != ConnState::Kind::kCbs) {
    return nullptr;
  }
  return &*conns_[id].server;
}

void Network::charge_cbs(NodeId g, bool completed) {
  const ConnectionId id = soa_.bind_conn[g];
  if (cbs_server(id) == nullptr) return;
  ConnState& c = conns_[id];
  if (completed && c.backlog > 0) --c.backlog;
  if (c.server->charge_slot()) {
    // Budget exhausted exactly at this slot boundary: the server
    // postponed (c = Q, d += T) and every job still queued behind it --
    // including a partially transmitted one -- follows the deadline.
    ++stats_.cbs.postponements;
    nodes_[c.source].queues().reschedule_connection(id, c.server->deadline());
  }
}

bool Network::fail_node(NodeId id) {
  Node& n = node(id);
  // Idempotence contract (fault/injector.hpp): a double-fail -- which
  // overlapping churn schedules produce naturally -- must not re-clear
  // queues or re-zero CBS backlogs.
  if (soa_.failed.contains(id)) return false;
  mark_plan_diverged();  // the plan's outcomes assumed a healthy ring
  n.queues().clear();
  for (ConnState& c : conns_) {
    if (c.source != id) continue;
    drop_held(c);
    // The failed source's queues were just cleared: its servers have no
    // backlog any more (the next job after restore recharges afresh).
    c.backlog = 0;
  }
  soa_.failed.insert(id);
  soa_.queued.erase(id);
  return true;
}

bool Network::restore_node(NodeId id) {
  CCREDF_EXPECT(id < nodes_.size(), "Network: node index out of range");
  if (!soa_.failed.contains(id)) return false;  // restore-of-healthy: no-op
  mark_plan_diverged();  // churn: the planned future no longer holds
  soa_.failed.erase(id);
  return true;
}

bool Network::cut_link(LinkId l) {
  CCREDF_EXPECT(l < nodes(), "Network: link out of range");
  // Idempotence contract (fault/injector.hpp): cutting an already-
  // severed link -- which overlapping link-fault schedules produce
  // naturally -- must not re-count the cut or restart detection.
  if (severed_.contains(l)) return false;
  mark_plan_diverged();  // the plan's grant layout assumed an intact ring
  severed_.insert(l);
  ++stats_.faults.link_cuts;
  if (!cut_detect_pending_) {
    // The next collection phase classifies the loss pattern (its heard
    // evidence truncates at the severed hop) -- that slot books the
    // in-protocol detection latency.
    cut_detect_pending_ = true;
    cut_detect_from_ = slot_;
  }
  return true;
}

bool Network::splice_link(LinkId l) {
  if (!severed_.contains(l)) return false;  // splice-of-intact: no-op
  mark_plan_diverged();  // healing changes the feasible grant set too
  severed_.erase(l);
  return true;
}

NodeId Network::degraded_anchor() const {
  if (severed_.size() != 1) return kInvalidNode;
  // The first live node downstream of the cut: anchored there, the
  // clock-break link coincides with the severed link (any failed nodes
  // skipped over sit between the cut and the anchor, where no record
  // travels anyway).
  return first_live_from(topo_.downstream(severed_.lowest()));
}

NodeId Network::first_live_from(NodeId from) const {
  for (NodeId tried = 0; tried < nodes(); ++tried) {
    if (!soa_.failed.contains(from)) return from;
    from = topo_.downstream(from);
  }
  return kInvalidNode;
}

std::vector<Network::OpenConnectionInfo> Network::connections_of(
    NodeId src) const {
  std::vector<OpenConnectionInfo> out;
  for (ConnectionId id = 0; id < conns_.size(); ++id) {
    const ConnState& c = conns_[id];
    if (c.kind == ConnState::Kind::kRealTime && c.source == src) {
      out.push_back(OpenConnectionInfo{id, c.params});
    }
  }
  return out;
}

std::vector<Network::OpenCbsInfo> Network::cbs_servers_of(NodeId src) const {
  std::vector<OpenCbsInfo> out;
  for (ConnectionId id = 0; id < conns_.size(); ++id) {
    const ConnState& c = conns_[id];
    if (c.kind == ConnState::Kind::kCbs && c.source == src) {
      out.push_back(OpenCbsInfo{id, c.server->params()});
    }
  }
  return out;
}

void Network::execute_grants(SlotRecord& rec, sim::TimePoint slot_end) {
  int executed = 0;
  for (const NodeId g : current_granted_) {
    Node& src = nodes_[g];
    if (!soa_.bound.contains(g) || soa_.failed.contains(g)) {
      ++stats_.wasted_grants;
      continue;
    }
    // A plan-bound message is consumed where it is held; anything else
    // must still sit in the source's EDF queues.
    ConnState* holder = bound_holder(g);
    if (holder == nullptr && !src.queues().contains(soa_.bind_msg[g])) {
      ++stats_.wasted_grants;
      continue;
    }
    if (!severed_.empty() && soa_.bind_links[g].intersects(severed_)) {
      // The link was cut between arbitration and transmission: the data
      // packet dies at the severed hop, so the grant is voided and the
      // message stays queued (quarantine resolves its fate).
      ++stats_.wasted_grants;
      continue;
    }
    ++executed;
    ++stats_.total_grants;
    ++stats_.node_grants[g];
    std::optional<core::Message> done;
    if (holder == nullptr) {
      done = src.queues().consume_slot(soa_.bind_msg[g]);
    } else if (--holder->held.front().remaining_slots == 0) {
      done = std::move(holder->held.front());
      holder->held.erase(holder->held.begin());
      if (--soa_.held_count[g] == 0) soa_.holding.erase(g);
    }
    if (open_cbs_ != 0) charge_cbs(g, done.has_value());
    if (!done) continue;  // more slots of this message remain
    refresh_queued_bit(g);  // the consumed message may have drained g

    core::Delivery d;
    d.id = done->id;
    d.source = done->source;
    d.dests = done->dests;
    d.traffic_class = done->traffic_class;
    d.connection = done->connection;
    d.arrival = done->arrival;
    d.completed = slot_end + soa_.bind_delay[g];
    d.deadline = done->deadline;
    d.size_slots = done->size_slots;

    if (fault_hook_ != nullptr) {
      // Data-channel exposure: the payload rode the byte-parallel fibres
      // from the source over the links to its furthest destination.
      // With the payload CRC every slot also carries its 32-bit check.
      std::int64_t payload_bits = done->payload_bytes * 8;
      if (cfg_.with_payload_crc) payload_bits += 32 * done->size_slots;
      using DataF = FaultHook::DataFault;
      const DataF fate =
          fault_hook_->filter_data(slot_, g, soa_.bind_hops[g], payload_bits);
      if (fate != DataF::kNone) {
        ++stats_.faults.payload_corruptions;
        ++stats_.per_node_faults[g].payloads_corrupted;
      }
      if (fate == DataF::kDetected) {
        // The receivers' CRC-32 rejected the payload: the garbage never
        // reaches an inbox, and the source learns through the NACK bits
        // of the next distribution packet (with_acks runs).
        ++stats_.faults.payload_detected;
        rec.corrupt_deliveries.push_back(d);
        continue;
      }
      // kSilent: the corruption escaped detection (no payload CRC, or
      // the CRC-32 residual) -- the garbage is delivered and counted as
      // the hazard it is.
      if (fate == DataF::kSilent) ++stats_.faults.payload_undetected;
    }
    rec.deliveries.push_back(d);

    for (const NodeId dst : soa_.bind_dests[g]) {
      if (!soa_.failed.contains(dst)) nodes_[dst].deliver(d);
    }
    const bool sched_miss = !d.met_deadline();
    // Eq. 3: the user-level bound adds the protocol latency (Eq. 4).
    const bool user_miss =
        sched_miss &&
        d.completed > d.deadline + timing_->worst_case_latency();
    stats_.cls(done->traffic_class)
        .record(done->payload_bytes, d.latency(), sched_miss, user_miss);
    if (done->connection != kNoConnection) {
      stats_of(done->connection)
          .record(done->payload_bytes, d.latency(), sched_miss, user_miss);
    }
  }
  if (executed > 0) {
    ++stats_.busy_slots;
    if (executed > 1) ++stats_.reuse_slots;
  }
}

void Network::collect_requests(std::vector<core::Request>& reqs) {
  // SoA dirty tracking: only the entries the previous slot wrote need
  // clearing (the reused vector keeps everything else idle already).
  for (const NodeId j : requesters_) reqs[j] = core::Request{};
  requesters_ = NodeSet{};
  soa_.bound = NodeSet{};

  // Severed-segment truncation (PROTOCOL.md section 7.5): the collection
  // packet dies at the first severed link in collection order, so the
  // master samples (and hears) only the contiguous prefix of nodes up to
  // and including the cut's upstream endpoint -- the packet dies LEAVING
  // that node.  With the single-cut master re-anchored at the cut's
  // downstream endpoint, the first severed link is the break link itself
  // and the prefix covers the whole ring.
  NodeId reach = static_cast<NodeId>(nodes() - 1);
  if (!severed_.empty()) {
    for (const NodeId l : severed_) {
      reach = std::min(reach, topo_.hops(master_, l));
    }
    if (cut_detect_pending_) {
      // First collection under the cut: the truncated heard prefix is
      // the classified loss pattern (contiguous downstream suffix
      // unheard while its nodes are alive -- unlike a node death's
      // isolated gap).  Book the in-protocol detection latency.
      stats_.faults.cut_detect_slots += slot_ - cut_detect_from_ + 1;
      cut_detect_pending_ = false;
    }
  }

  const sim::Duration* off =
      &sample_off_[static_cast<std::size_t>(master_) * nodes()];
  const auto bind = [&](NodeId j, const core::Message& m,
                        sim::TimePoint sample) {
    if (soa_.bind_msg[j] != m.id) {
      // New head at this node: compute its transmission geometry once.
      // Message ids are never reused and dests are immutable, so a
      // matching bind_msg means hops/links/dests are already right
      // (heads typically persist several slots awaiting their grant).
      const auto seg = ring::Segment::for_transmission(topo_, j, m.dests);
      soa_.bind_msg[j] = m.id;
      soa_.bind_hops[j] = seg.hops();
      soa_.bind_links[j] = seg.links();
      soa_.bind_dests[j] = m.dests;
      soa_.bind_conn[j] = m.connection;
      soa_.bind_delay[j] = phy_->path_delay(j, seg.hops());
    }
    if (!severed_.empty() && soa_.bind_links[j].intersects(severed_)) {
      // Degraded-mode candidate mask: the transfer's segment crosses a
      // severed link, so the arbiter never sees it (the node still
      // writes its idle record and stays heard; the message stays
      // queued -- quarantine, not arbitration, resolves its fate).
      return;
    }
    reqs[j].priority = priority_of(m, sample);
    reqs[j].links = soa_.bind_links[j];
    reqs[j].dests = m.dests;
    soa_.bound.insert(j);
    requesters_.insert(j);
    ++stats_.node_requests[j];
  };

  const sim::TimePoint last_sample = slot_start_ + last_sample_off_[master_];
  if (fault_hook_ == nullptr && sim_.next_event_time() > last_sample) {
    // Fast path: no event fires inside the sampling window (strict
    // comparison -- an event AT a sample time must precede that sample)
    // and no fault hook intercepts idle records, so only nodes with a
    // queued message can produce a request.  Sampling order is
    // irrelevant here: each node's sample depends only on its own
    // offset, and no event interleaves.  Every live node's record --
    // request or idle -- reaches the master untouched: the failed set
    // cannot change mid-window (no event), so the heard evidence is one
    // mask expression.  Under a severed segment the same expression is
    // intersected with the reachable prefix (an arc mask, built only on
    // degraded slots).
    NodeSet reached = topo_.all_nodes();
    if (reach + 1 < nodes()) {
      reached = NodeSet{};
      for (NodeId h = 0; h <= reach; ++h) {
        reached.insert(topo_.downstream(master_, h));
      }
    }
    rec_.heard = reached & ~soa_.failed;
    const NodeSet candidates = soa_.queued & ~soa_.failed & reached;
    for (const NodeId j : candidates) {
      const sim::TimePoint sample = slot_start_ + off[j];
      const core::Message* m = nodes_[j].queues().head(sample);
      if (m != nullptr) bind(j, *m, sample);
    }
    // Mirror the slow path's final run_until(sample of hop N-1).
    sim_.advance_to(last_sample);
    return;
  }

  rec_.heard = NodeSet{};
  for (NodeId h = 0; h <= reach; ++h) {
    const NodeId j = topo_.downstream(master_, h);
    // The collection packet reaches node j after propagating h hops and
    // being delayed in each intermediate node (t_node of Eq. 2).
    const sim::TimePoint sample = slot_start_ + off[j];
    sim_.run_until(sample);
    if (soa_.failed.contains(j)) continue;
    Node& nd = nodes_[j];
    // The node was live at its sampling instant: it wrote a (possibly
    // idle) record into the passing collection packet.  Faults below may
    // still destroy it in transit.
    rec_.heard.insert(j);
    if (soa_.queued.contains(j)) {
      const core::Message* m = nd.queues().head(sample);
      if (m != nullptr) bind(j, *m, sample);
    }
    if (fault_hook_ == nullptr) continue;
    using RF = FaultHook::RequestFault;
    switch (fault_hook_->filter_request(slot_, h, j, reqs[j])) {
      case RF::kNone:
        break;
      case RF::kDropped:
        // The record died on the wire: the master sees an idle node.
        reqs[j] = core::Request{};
        soa_.bound.erase(j);
        requesters_.erase(j);
        rec_.heard.erase(j);  // no valid record arrived: unheard
        ++stats_.faults.collection_drops;
        ++stats_.per_node_faults[j].requests_dropped;
        break;
      case RF::kDetected:
        // The master's integrity guards rejected the record; the
        // containment action is to treat the node as idle this round
        // (its message stays queued and re-requests next slot).
        reqs[j] = core::Request{};
        soa_.bound.erase(j);
        requesters_.erase(j);
        rec_.heard.erase(j);  // guards rejected the record: unheard
        ++stats_.faults.collection_corruptions;
        ++stats_.faults.collection_detected;
        ++stats_.per_node_faults[j].requests_corrupted;
        ++stats_.per_node_faults[j].requests_rejected;
        break;
      case RF::kSilent:
        // Corruption passed the guards: arbitration acts on the mutated
        // fields.  The binding stays -- if granted, the node transmits
        // its real message (only the master's view was lied to).
        requesters_.insert(j);
        ++stats_.faults.collection_corruptions;
        ++stats_.faults.collection_silent;
        ++stats_.per_node_faults[j].requests_corrupted;
        break;
      case RF::kSpurious:
        // Babbling node: a fabricated request with no message behind
        // it.  If granted, the grant is wasted (execute_grants counts
        // it) and the slot capacity is lost to the babbler.
        soa_.bound.erase(j);
        requesters_.insert(j);
        ++stats_.faults.spurious_requests;
        ++stats_.per_node_faults[j].spurious_requests;
        break;
    }
  }
  // When the walk was truncated by a severed link the engine still burns
  // the full sampling window -- the dead packet does not shorten the
  // slot.  A no-op for full walks (hop N-1's run_until already landed
  // exactly here).
  sim_.run_until(last_sample);
}

// The slot loop is the simulator's hot path: flattening inlines the phase
// helpers it calls from this file (grant execution, plan cursor, release
// table, collection), so the phases stay separate functions without a
// call round trip per slot.
[[gnu::flatten]] void Network::advance(std::int64_t max_slots,
                                       sim::TimePoint horizon) {
  const sim::Duration t_slot = timing_->slot();
  // The scratch record is reused: its vectors keep their high-water
  // capacity, so a steady-state slot performs no heap allocation.  Each
  // slot resets only what the slot itself reads; the rest is filled at
  // notify time, and only when somebody listens.
  SlotRecord& rec = rec_;
  while (max_slots > 0 && slot_start_ < horizon) {
    const std::int64_t skipped = skip_quiet_slots(max_slots, horizon);
    if (skipped > 0) {
      max_slots -= skipped;
      continue;
    }
    --max_slots;

    // Phase 1 -- events and releases up to the slot start.
    sim_.run_until(slot_start_);
    plan_release_due(slot_start_);
    const sim::TimePoint slot_end = slot_start_ + t_slot;

    // Phase 2 -- deliver: the data of this slot (granted during slot k-1).
    const NodeSet granted = current_granted_;
    rec.deliveries.clear();
    rec.corrupt_deliveries.clear();
    execute_grants(rec, slot_end);
    stats_.time_in_slots += t_slot;
    rec.acks = NodeSet{};
    rec.nacks = NodeSet{};
    if (cfg_.with_acks) {
      // Receivers acknowledge last slot's completed transfers in this
      // slot's distribution packet (ref [11]); lost with the packet on a
      // token loss.
      rec.acks = pending_acks_;
      pending_acks_ = NodeSet{};
      for (const auto& d : rec.deliveries) pending_acks_.insert(d.source);
      if (cfg_.with_payload_crc) {
        // Receivers NACK last slot's CRC-rejected payloads the same way
        // the acks travel: on the next distribution packet.
        rec.nacks = pending_nacks_;
        pending_nacks_ = NodeSet{};
        for (const auto& d : rec.corrupt_deliveries) {
          pending_nacks_.insert(d.source);
        }
      }
    }

    // Phase 3 -- collect, or consult the plan: collection for slot k+1
    // rides the control channel now, unless an engaged hypercycle plan
    // already knows the outcome -- then the wire stays silent (no
    // sampling, no request records, no arbitration).  The decision
    // source is latched here: a divergence signalled later in this slot
    // takes effect at the next slot boundary.
    const bool planned = plan_engaged();
    if (planned) {
      for (const NodeId j : requesters_) rec.requests[j] = core::Request{};
      requesters_ = NodeSet{};
      soa_.bound = NodeSet{};
      // No failure can have survived engagement (fail_node diverges the
      // plan), so every node evidences itself on a planned slot.
      rec.heard = topo_.all_nodes() & ~soa_.failed;
    } else {
      // The first slot collection decides after a plan drove: the held
      // messages join the EDF queues the collection samples.
      if (!soa_.holding.empty()) flush_held();
      collect_requests(rec.requests);
    }
    // The distribution packet ends with the slot.  A token loss (fault
    // injection, or the master dying at any point before the packet's
    // last bit) means no node learns the outcome -- so drain events
    // through slot end before judging.
    sim_.run_until(slot_end);

    // Phase 4 -- decide slot k+1: the plan cursor or the protocol.
    bool token_lost = false;
    if (!planned && fault_hook_ != nullptr &&
        fault_hook_->drop_distribution(slot_)) {
      token_lost = true;
      ++stats_.faults.token_losses;
    }
    if (soa_.failed.contains(master_)) {
      token_lost = true;
      // The heartbeat evidence lived in the collection packet the master
      // was accumulating; a dead master takes it down with the slot.  (A
      // distribution-packet loss above does NOT clear it: the master
      // heard everyone before the outbound packet died.)
      rec.heard = NodeSet{};
    }
    SlotPlan plan;
    if (!token_lost && planned) {
      plan = plan_next_from_cursor();
    } else if (!token_lost) {
      const std::vector<core::Request>& requests = rec.requests;
      plan = protocol_->plan_next_slot(requests, master_, slot_, requesters_);
      // Priority-inversion accounting: the globally most urgent requester
      // must be among the granted (always true for CCR-EDF; the simple
      // clocking strategy of CC-FPR violates it -- paper §1).
      // requesters_ covers every non-idle entry (mask order = index
      // order, so ties resolve exactly as the full scan did).
      NodeId hp = kInvalidNode;
      core::Priority best = 0;
      for (const NodeId i : requesters_) {
        if (requests[i].priority > best) {
          best = requests[i].priority;
          hp = i;
        }
      }
      if (hp != kInvalidNode && !plan.granted.contains(hp)) {
        ++stats_.priority_inversions;
      }
    }

    // Phase 5 -- fault and cut overrides.
    if (!token_lost && !planned && fault_hook_ != nullptr) {
      token_lost = apply_distribution_fault(plan, rec);
    }
    sim::Duration gap;
    if (token_lost) {
      gap = recover_token_loss(plan);
      // The acks and NACKs died with the distribution packet.
      rec.acks = NodeSet{};
      rec.nacks = NodeSet{};
    } else {
      gap = handover_gap(master_, plan.next_master);
    }
    if (!severed_.empty()) gap = apply_cuts(plan, gap, token_lost);
    if (!rec.nacks.empty()) stats_.faults.payload_nacks += rec.nacks.size();

    // Phase 6 -- hand-over.
    stats_.time_in_gaps += gap;
    stats_.gap.add(gap);
    stats_.handover_hops.add(
        static_cast<std::int64_t>(topo_.hops(master_, plan.next_master)));
    ++stats_.slots;
    const SlotIndex index = slot_;
    const sim::TimePoint start = slot_start_;
    const NodeId master = master_;
    current_granted_ = plan.granted;
    master_ = plan.next_master;
    slot_start_ = slot_end + gap;
    ++slot_;

    // Phase 7 -- notify.
    if (listeners_.empty()) continue;
    rec.index = index;
    rec.start = start;
    rec.end = slot_end;
    rec.gap_after = gap;
    rec.master = master;
    rec.next_master = plan.next_master;
    rec.granted = granted;
    rec.token_lost = token_lost;
    notify([&rec](SlotListener& l) { l.on_slot(rec); });
  }
}

sim::Duration Network::apply_cuts(SlotPlan& plan, sim::Duration gap,
                                  bool token_lost) {
  if (severed_.size() >= 2) {
    // Two or more cuts partition the ring: no single surviving
    // orientation exists, so the ring parks dark exactly like the
    // all-failed token-loss case -- grants voided, clock parked at the
    // designated restarter, resuming the moment splices bring the cut
    // count back to one or zero.
    ++stats_.faults.ring_dark;
    plan.granted = NodeSet{};
    soa_.bound = NodeSet{};
    if (token_lost) return gap;
    plan.next_master = cfg_.designated_restarter;
    return handover_gap(master_, plan.next_master);
  }
  // Single cut: master succession re-anchors at the cut's downstream
  // endpoint so the collection path never traverses the severed segment
  // (the break link coincides with the cut).
  const NodeId anchor = degraded_anchor();
  if (anchor == kInvalidNode || plan.next_master == anchor || token_lost) {
    return gap;
  }
  plan.next_master = anchor;
  return handover_gap(master_, anchor);
}

bool Network::apply_distribution_fault(SlotPlan& plan, SlotRecord& rec) {
  // The distribution packet crosses every link; bit errors on it are the
  // most dangerous fault axis because ALL nodes act on the result.
  core::DistributionPacket pkt;
  pkt.granted = plan.granted;
  pkt.hp_node = plan.next_master;
  pkt.has_acks = cfg_.with_acks;
  pkt.acks = rec.acks;
  pkt.has_nacks = cfg_.with_acks && cfg_.with_payload_crc;
  pkt.nacks = rec.nacks;
  using DF = FaultHook::DistributionFault;
  switch (fault_hook_->filter_distribution(slot_, pkt)) {
    case DF::kNone:
      break;
    case DF::kDetected:
      // Receivers reject the frame (CRC / start bit / hp range): no node
      // learns the next master, which is exactly the token-loss
      // condition, so the designated-restarter timeout recovers
      // (PROTOCOL.md §7).  Rejecting is the SAFE outcome -- the
      // alternative is acting on a corrupted grant view.
      ++stats_.faults.distribution_corruptions;
      ++stats_.faults.distribution_detected;
      return true;
    case DF::kGrantView: {
      // The frame passed the guards but its grant/ack bits mutated.
      // Each node cross-checks the view against what it knows locally: a
      // grant bit on a node that sent priority 0 is impossible (that node
      // knows it), so the ring can void the slot and re-arbitrate
      // instead of breaking the clock.
      ++stats_.faults.distribution_corruptions;
      bool impossible = false;  // grant bit on a non-requester
      bool collision = false;   // grant bit on an ungranted requester
      for (const NodeId g : pkt.granted) {
        if (plan.granted.contains(g)) continue;
        if (!rec.requests[g].wants_slot()) {
          impossible = true;
        } else {
          collision = true;
        }
      }
      if (impossible) {
        ++stats_.faults.distribution_detected;
        ++stats_.faults.rearbitration_slots;
        plan.granted = NodeSet{};
        rec.acks = NodeSet{};
        rec.nacks = NodeSet{};
        soa_.bound = NodeSet{};
      } else if (collision) {
        // Undetectable: the extra node believes its request was granted
        // and transmits into links arbitration gave to others.  Model
        // the collision as the whole slot's transfers garbled -- this is
        // the residual hazard the CRC exists to shrink.
        ++stats_.faults.silent_misarbitrations;
        plan.granted = NodeSet{};
        soa_.bound = NodeSet{};
      } else {
        // Only cleared bits: granted nodes stay silent, capacity is lost
        // but nothing collides -- harmless degradation.
        plan.granted = pkt.granted;
        rec.acks = pkt.acks;
        rec.nacks = pkt.nacks;
      }
      break;
    }
    case DF::kSilentMaster:
      // The hp-node index mutated to another in-range value.  Nodes
      // upstream of the corrupted link saw the true master, nodes
      // downstream the wrong one: two nodes start slot k+1 -- the
      // clock-break hazard.  The collision is detected only by the
      // restarter's silence timeout, so model it as a stalled clock.
      ++stats_.faults.distribution_corruptions;
      ++stats_.faults.silent_misarbitrations;
      return true;
  }
  return false;
}

sim::Duration Network::recover_token_loss(SlotPlan& plan) {
  mark_plan_diverged();
  const sim::Duration gap =
      (timing_->slot() + protocol_->max_gap()) * cfg_.recovery_timeout_slots;
  // The designated restarter takes over; if it is itself down, the first
  // live node downstream of it assumes the role.
  const NodeId restarter = first_live_from(cfg_.designated_restarter);
  if (restarter == kInvalidNode) {
    // EVERY node is failed: no deputy exists, so nothing restarts the
    // clock -- the ring is dark until a node is restored.  Counting a
    // recovery here would be a phantom restart; the clock is parked at
    // the designated restarter so recovery resumes the moment it (or any
    // upstream deputy) comes back.
    ++stats_.faults.ring_dark;
    plan.next_master = cfg_.designated_restarter;
  } else {
    ++stats_.faults.recoveries;
    stats_.faults.recovery_gap.add(gap);
    stats_.faults.recovery_gap_quantiles.add(gap.ps());
    plan.next_master = restarter;
  }
  // The planned grants died with the distribution packet.
  plan.granted = NodeSet{};
  soa_.bound = NodeSet{};
  return gap;
}

std::int64_t Network::skip_quiet_slots(std::int64_t max_slots,
                                       sim::TimePoint horizon) {
  // A slot is quiet when nothing moves on it and its decision provably
  // grants nobody and keeps the master: no grant or ack/NACK bit is in
  // flight, and the protocol keeps the master on a slot that grants
  // nobody.
  if (!cfg_.fast_forward || !current_granted_.empty()) return 0;
  if (!pending_acks_.empty() || !pending_nacks_.empty()) return 0;
  // Only slots ending STRICTLY before the next event are skippable: an
  // event landing inside (or exactly at the end of) a slot could release
  // a message a later collection sample of that slot would see, so that
  // slot is simulated normally.  With the release keys disarmed by an
  // adopted plan, the table cursor is the release "event".  A slot ends
  // before that instant exactly when it starts before start_bound.
  const sim::Duration t_slot = timing_->slot();
  const sim::TimePoint start_bound =
      std::min(sim_.next_event_time(), plan_release_at_) - t_slot;
  if (start_bound <= slot_start_) return 0;
  const bool planned = plan_engaged();
  // First instant the decision can differ from a wait: never for the
  // idle fixed point, the next bundle's release instant under a plan.
  sim::TimePoint eligible = sim::TimePoint::infinity();
  if (planned) {
    // Decision source "plan": the cursor waits (master kept, nobody
    // granted) on every slot starting before the next bundle's release
    // instant, whatever is queued.
    eligible = plan_next_eligible_time();
    if (eligible <= slot_start_) return 0;
  } else {
    // Decision source "idle": the fixed point needs no live node with a
    // queued message and a live master (a dead master is the token-loss
    // path).  A severed ring qualifies only once it has settled into the
    // stable degraded orbit: exactly one cut with the master parked at
    // the cut's downstream anchor (the break link coincides with the
    // cut, so an idle slot keeps the master and hears everyone).  The
    // first collection under a fresh cut books the detection latency, so
    // that slot must run for real.
    if (!(soa_.queued & ~soa_.failed).empty()) return 0;
    if (soa_.failed.contains(master_) || cut_detect_pending_) return 0;
    if (!severed_.empty() &&
        (severed_.size() != 1 || master_ != degraded_anchor())) {
      return 0;
    }
  }
  if (!protocol_->idle_keeps_master()) return 0;

  const sim::Duration g = handover_gap(master_, master_);
  const sim::Duration step = t_slot + g;
  // Number of window slots i >= 0 starting strictly before `t`.
  const auto starts_before = [&](sim::TimePoint t) -> std::int64_t {
    const std::int64_t room = (t - slot_start_).ps();
    return room <= 0 ? 0 : (room + step.ps() - 1) / step.ps();
  };
  std::int64_t k = std::min({max_slots, starts_before(start_bound),
                             starts_before(eligible), starts_before(horizon)});
  // Each listener's deadline (a fault the probe cannot rule out, a
  // detection window, a flag awaiting collection) is simulated, not skipped.
  for (SlotListener* l : listeners_) {
    if (k <= 0) return 0;
    k = std::min<std::int64_t>(k, l->next_deadline_slot(slot_, slot_ + k) -
                                      slot_);
  }
  if (k <= 0) return 0;

  // Advance every aggregate arithmetically.  ExactStats::add_n is
  // bitwise identical to k sequential adds, and per-node idle accounting
  // is derived (slots grow, node_requests do not), so skipped and
  // simulated slots produce byte-identical statistics.
  stats_.slots += k;
  stats_.ff_slots_skipped += k;
  ++stats_.ff_windows;
  if (planned) stats_.plan_wait_slots += k;
  stats_.time_in_slots += t_slot * k;
  stats_.time_in_gaps += g * k;
  stats_.gap.add_n(g.ps(), k);
  stats_.handover_hops.add_n(0, k);

  const sim::TimePoint last_end = slot_start_ + step * (k - 1) + t_slot;
  sim_.advance_to(last_end);  // no event precedes last_end, by the bound
  const SlotIndex first = slot_;
  slot_ += k;
  slot_start_ = last_end + g;
  // Every skipped slot evidenced the same live set (no event could
  // change it inside the window).
  const NodeSet heard = topo_.all_nodes() & ~soa_.failed;
  notify([&](SlotListener& l) { l.on_skip(first, k, heard); });
  return k;
}

bool Network::plan_can_build() const {
  return planner_ != nullptr && protocol_->supports_planning() &&
         fault_hook_ == nullptr && open_cbs_ == 0 && soa_.failed.empty() &&
         severed_.empty() && current_granted_.empty() && soa_.queued.empty();
}

void Network::rebuild_plan() {
  // A previously adopted plan may have disarmed the release keys; bring
  // them back before re-deriving (a successful build re-adopts).
  plan_restore_releases();
  plan_valid_ = false;
  plan_diverged_ = false;
  if (!plan_can_build()) return;
  const sim::Duration t_slot = timing_->slot();
  planner_->clear();
  bool any = false;
  for (ConnectionId id = 0; id < conns_.size(); ++id) {
    const ConnState& c = conns_[id];
    if (c.kind != ConnState::Kind::kRealTime) continue;
    if (c.released != 0) return;  // mid-stream: stay on TCMA
    const sim::Duration off = c.base - sim::TimePoint::origin();
    if (off.ps() % t_slot.ps() != 0) return;  // off the nominal grid
    planner_->add(id, c.params, off.ps() / t_slot.ps());
    any = true;
  }
  if (!any) return;
  if (!planner_->build(slot_start_, master_)) return;
  plan_valid_ = true;
  ++stats_.plan_builds;
  plan_prefix_pos_ = 0;
  plan_cycle_pos_ = 0;
  plan_cycle_no_ = 0;
  plan_adopt_releases();
}

void Network::plan_adopt_releases() {
  // While the plan drives the engine, the event heap would hold exactly
  // one armed release key per connection (everything else is gated off
  // by the rebuild preconditions).  The plan knows the whole periodic
  // schedule, so those keys collapse into a sorted cyclic table walked
  // by a cursor -- no heap re-key per message on the planned hot path.
  // Purely an engine strategy: plan_release_due fires the same releases,
  // in the same grid order, with the same arrival instants, as the keys
  // it replaces.
  const std::int64_t h = planner_->hyperperiod_slots();
  const sim::Duration t_slot = timing_->slot();
  std::size_t entries = 0;
  for (const ConnState& c : conns_) {
    if (c.kind == ConnState::Kind::kRealTime) {
      entries += static_cast<std::size_t>(h / c.params.period_slots);
    }
  }
  if (entries > kMaxPlanReleaseEntries) return;  // keep the keys
  sim_.disarm(*this);
  plan_releases_.clear();
  plan_releases_.reserve(entries);
  for (ConnectionId id = 0; id < conns_.size(); ++id) {
    const ConnState& c = conns_[id];
    if (c.kind != ConnState::Kind::kRealTime) continue;
    const std::int64_t base =
        (c.base - sim::TimePoint::origin()).ps() / t_slot.ps();
    const std::int64_t period = c.params.period_slots;
    for (std::int64_t k = 0; k < h / period; ++k) {
      const std::int64_t first = base + k * period;
      plan_releases_.push_back(PlanRelease{first % h, first, id});
    }
  }
  std::sort(plan_releases_.begin(), plan_releases_.end(),
            [](const PlanRelease& a, const PlanRelease& b) {
              if (a.rel != b.rel) return a.rel < b.rel;
              if (a.first_abs != b.first_abs) return a.first_abs < b.first_abs;
              return a.conn < b.conn;
            });
  // Position the cursor at the earliest unfired release (rebuild
  // guarantees released == 0 everywhere, so that is the smallest base).
  std::int64_t start = plan_releases_.front().first_abs;
  for (const PlanRelease& r : plan_releases_) {
    start = std::min(start, r.first_abs);
  }
  plan_release_cycle_ = start / h;
  plan_release_idx_ = 0;
  while (plan_release_idx_ < plan_releases_.size() &&
         plan_releases_[plan_release_idx_].rel < start % h) {
    ++plan_release_idx_;
  }
  if (plan_release_idx_ == plan_releases_.size()) {
    plan_release_idx_ = 0;
    ++plan_release_cycle_;
  }
  const std::int64_t next =
      plan_releases_[plan_release_idx_].rel + plan_release_cycle_ * h;
  plan_release_at_ = sim::TimePoint::origin() + t_slot * next;
}

void Network::plan_restore_releases() {
  if (plan_releases_.empty()) return;
  // Hand each open connection back to its key.  A release the table
  // still owes (a mid-slot deferral) is armed at max(nominal, now): it
  // fires on the next event drain, stamped with its nominal instant, and
  // nothing fires inline.  A connection opened this very call still has
  // its admission-time key armed, hence the disarm.  Re-arming in id
  // order makes simultaneous releases enqueue in opening order, as on a
  // ring that never planned (same-instant entries fire FIFO).
  plan_releases_.clear();
  plan_release_at_ = sim::TimePoint::infinity();
  sim_.disarm(*this);
  for (ConnectionId id = 0; id < conns_.size(); ++id) {
    const ConnState& c = conns_[id];
    if (c.kind != ConnState::Kind::kRealTime) continue;
    sim_.arm(std::max(next_release(c), sim_.now()), *this, id);
  }
}

void Network::plan_release_due_slow(sim::TimePoint upto) {
  const std::int64_t h = planner_->hyperperiod_slots();
  for (;;) {
    const PlanRelease& r = plan_releases_[plan_release_idx_];
    const std::int64_t abs = r.rel + plan_release_cycle_ * h;
    plan_release_at_ = sim::TimePoint::origin() + timing_->slot() * abs;
    if (plan_release_at_ > upto) return;
    // Visits below first_abs are the start-up transient of an offset
    // connection (its k-th entry exists in every cycle but only fires
    // from cycle (first_abs - rel) / H on).
    if (abs >= r.first_abs &&
        conns_[r.conn].kind == ConnState::Kind::kRealTime) {
      fire_release(r.conn);
    }
    if (plan_releases_.empty()) return;  // a divergence tore the table down
    if (++plan_release_idx_ == plan_releases_.size()) {
      plan_release_idx_ = 0;
      ++plan_release_cycle_;
    }
  }
}

sim::TimePoint Network::plan_next_eligible_time() const {
  std::int64_t rel;
  if (plan_prefix_pos_ < planner_->prefix().size()) {
    rel = planner_->prefix()[plan_prefix_pos_].release_slot;
  } else {
    rel = planner_->cycle()[plan_cycle_pos_].release_slot +
          planner_->cycle_origin_slot() +
          plan_cycle_no_ * planner_->hyperperiod_slots();
  }
  return sim::TimePoint::origin() + timing_->slot() * rel;
}

SlotPlan Network::plan_next_from_cursor() {
  SlotPlan plan;
  plan.next_master = master_;
  if (plan_next_eligible_time() > slot_start_) {
    ++stats_.plan_wait_slots;
    return plan;  // wait: master keeps the clock, nobody granted
  }
  const bool from_prefix = plan_prefix_pos_ < planner_->prefix().size();
  const core::HypercyclePlanner::Bundle* b =
      from_prefix ? &planner_->prefix()[plan_prefix_pos_]
                  : &planner_->cycle()[plan_cycle_pos_];
  const core::HypercyclePlanner::Grant* gs = planner_->grants(*b);
  // Bind each grant's held front, but mark the sources bound only once
  // every front was found, so a divergence (a dropped message) leaves no
  // partial binding behind.  (The bind_* entries always describe the
  // message in bind_msg, so collect_requests' geometry memo stays sound.)
  NodeSet bound;
  for (std::uint32_t i = 0; i < b->grant_count; ++i) {
    const auto& g = gs[i];
    const std::vector<core::Message>& held = conns_[g.conn].held;
    if (held.empty()) {
      mark_plan_diverged();
      return plan;  // idle decision; TCMA resumes next slot
    }
    const NodeId s = g.source;
    bound.insert(s);
    soa_.bind_msg[s] = held.front().id;
    soa_.bind_hops[s] = g.hops;
    soa_.bind_links[s] = g.links;
    soa_.bind_dests[s] = g.dests;
    soa_.bind_conn[s] = g.conn;
    soa_.bind_delay[s] = g.path_delay;
  }
  soa_.bound |= bound;
  plan.next_master = b->master;
  plan.granted = b->granted;
  if (from_prefix) {
    ++plan_prefix_pos_;
  } else if (++plan_cycle_pos_ == planner_->cycle().size()) {
    plan_cycle_pos_ = 0;
    ++plan_cycle_no_;
  }
  ++stats_.planned_slots;
  return plan;
}

void Network::run_slots(std::int64_t n) {
  advance(n, sim::TimePoint::infinity());
}

void Network::run_for(sim::Duration d) {
  // Only slots STARTING before the horizon run.
  advance(std::numeric_limits<std::int64_t>::max(), sim_.now() + d);
}

}  // namespace ccredf::net
