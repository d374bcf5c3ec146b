// The slot-stepped network engine binding phy + ring + MAC + EDF.
//
// Every slot k (master m_k, start T_k, fixed data time t_slot) runs one
// pipeline of fixed phases:
//   1. events and releases: queued events up to T_k fire (releases,
//      faults, arrivals), and so do plan-table releases due by T_k;
//   2. deliver: the grants decided during slot k-1 move one slot of each
//      granted message; completed messages are delivered with timestamp
//      T_k + t_slot + propagation to the furthest destination;
//   3. collect or consult the plan: the control packet leaves the master
//      and visits node j at T_k + prop(m_k -> j) + j_passthroughs; each
//      node's head eligible message (arrival <= its sampling time) becomes
//      its request, with laxity mapped to the priority field -- unless an
//      engaged hypercycle plan already knows the outcome;
//   4. decide slot k+1 (grants + next master m_{k+1}): the plan cursor,
//      or MacProtocol::plan_next_slot on the collected requests;
//   5. fault and cut overrides: token loss, a corrupted distribution
//      packet, severed links;
//   6. hand-over: the slot ends at T_k + t_slot; the clock hand-over gap
//      to m_{k+1} follows (Eq. 1), so T_{k+1} = T_k + t_slot + gap;
//   7. notify the slot listeners, in attach order.
// This realises the paper's pipeline: arbitration for slot k+1 rides the
// control channel while slot k's data flows (Fig. 3).
//
// "Idle" and "planned" are decision sources inside that pipeline, not
// separate engines.  run_slots and run_for share one advance loop, which
// steps slot by slot except where the next decisions are provably "grant
// nobody, keep the master" -- the idle fixed point, or the plan waiting
// for its next bundle's release -- and then accounts the whole window
// arithmetically (NetworkConfig::fast_forward).
//
// Each open RT connection's periodic release is key `id` of the network
// (a sim::ArrivalProcess on its own simulator), re-armed one period later
// each time it fires.  An adopted plan disarms the keys for its release
// table; divergence or a rebuild re-arms them.
//
// While a plan drives, a node's EDF queues do not hold its planned
// messages: each connection holds its released messages itself, the plan
// cursor binds the oldest, and they join the EDF queues at the first
// slot the collection phase decides again.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "core/admission.hpp"
#include "core/cbs.hpp"
#include "core/connection.hpp"
#include "core/control_timing.hpp"
#include "core/frames.hpp"
#include "core/hypercycle.hpp"
#include "core/message.hpp"
#include "core/priority.hpp"
#include "core/schedulability.hpp"
#include "net/config.hpp"
#include "net/node.hpp"
#include "net/protocol.hpp"
#include "net/stats.hpp"
#include "phy/ring_phy.hpp"
#include "ring/topology.hpp"
#include "sim/simulator.hpp"

namespace ccredf::net {

/// Everything that happened in one slot, handed to listeners at slot end.
/// The network reuses one record object across slots (its vectors keep
/// their capacity, so the steady-state slot path never allocates); copy
/// whatever must outlive the listener call.
struct SlotRecord {
  SlotIndex index = 0;
  sim::TimePoint start;
  sim::TimePoint end;
  sim::Duration gap_after = sim::Duration::zero();
  NodeId master = kInvalidNode;
  NodeId next_master = kInvalidNode;
  /// Requests sampled this slot (arbitrating slot k+1).
  std::vector<core::Request> requests;
  /// Nodes that transmitted during THIS slot.
  NodeSet granted;
  /// Messages whose final slot completed this slot.
  std::vector<core::Delivery> deliveries;
  /// Messages whose final slot completed this slot but whose payload
  /// failed the receivers' CRC-32 (NetworkConfig::with_payload_crc):
  /// the garbage was dropped before any inbox and the source will be
  /// NACKed in the NEXT slot's distribution packet.  Always empty on
  /// clean runs (no fault hook attached).
  std::vector<core::Delivery> corrupt_deliveries;
  /// When the network runs with the reliable-service ack field
  /// (NetworkConfig::with_acks), the per-source acknowledgement bits
  /// carried by this slot's distribution packet: sources whose transfer
  /// completed in the PREVIOUS slot (the receivers' acks ride the next
  /// control-channel round, paper ref [11]).
  NodeSet acks;
  /// Per-source NACK bits carried by this slot's distribution packet:
  /// sources whose transfer failed its payload CRC in the PREVIOUS slot
  /// (with_acks + with_payload_crc runs only).
  NodeSet nacks;
  /// True when this slot boundary suffered a token loss (fault runs).
  bool token_lost = false;
  /// On-wire heartbeat evidence: nodes whose request record -- a live
  /// request OR the idle record every healthy node writes as the
  /// collection packet passes (the start bit alone proves the writer) --
  /// validly reached the master this slot.  A record destroyed in
  /// transit or rejected by the integrity guards removes its node;
  /// fail-silent nodes never appear; and when the MASTER is failed at
  /// slot end the whole set is empty (the evidence died with its
  /// collector).  services::ResilienceMonitor's failure detection reads
  /// exactly this set -- no wire change.
  NodeSet heard;
};

class Network;

/// A party riding the slot pipeline (a service, the fault hook, a
/// function observer).  Attached listeners hear every slot in attach
/// order: `on_slot` for a simulated slot, `on_skip` for a skipped
/// window.  Destroying a listener detaches it, and a network destroyed
/// first leaves it detached, so either destruction order is safe.
class SlotListener {
 public:
  SlotListener() = default;
  SlotListener(const SlotListener&) = delete;
  SlotListener& operator=(const SlotListener&) = delete;
  virtual ~SlotListener();

  /// End of a simulated slot (phase 7).  The slot is over, so the
  /// listener may mutate the network; later listeners see the same record.
  virtual void on_slot(const SlotRecord& /*rec*/) {}
  /// Quiet slots [first, first + k) were skipped: no grant, delivery,
  /// event, fault or master death inside; each one evidenced `heard`.
  virtual void on_skip(SlotIndex /*first*/, std::int64_t /*k*/,
                       NodeSet /*heard*/) {}
  /// First slot in [from, limit] this listener must see simulated, or
  /// `limit` when none.  The engine never skips the returned slot, so a
  /// conservative answer costs speed, never correctness.  It must not
  /// mutate the network.  The default simulates every slot.
  [[nodiscard]] virtual SlotIndex next_deadline_slot(SlotIndex from,
                                                     SlotIndex /*limit*/) {
    return from;
  }

 private:
  friend class Network;
  Network* attached_to_ = nullptr;
};

/// Run-time fault injection hooks (see src/fault/ for implementations).
///
/// The engine calls a hook at each point where a physical fault can
/// strike a control frame.  A hook mutates the in-flight frame content
/// and reports WHAT HAPPENED; the engine models the receivers' reaction
/// (containment or hazard) and counts it in NetworkStats::faults.  Every
/// hook defaults to "no fault", so an implementation overrides only the
/// axes it injects.
///
/// Its `next_deadline_slot` is the fast-forward probe: the first slot
/// in which the hook COULD fire a fault on an all-idle slot.  Probing
/// MUST NOT perturb any stream the fault path draws from.
class FaultHook : public SlotListener {
 public:
  /// What befell one request record of the collection packet.
  enum class RequestFault {
    kNone,      ///< untouched
    kDropped,   ///< record destroyed in transit; master sees nothing
    kDetected,  ///< corrupted; the integrity guards rejected it
    kSilent,    ///< corrupted; passed the guards -- `rq` was mutated
    kSpurious,  ///< fabricated by a babbling node -- `rq` was filled in
  };
  /// What befell the distribution packet.
  enum class DistributionFault {
    kNone,
    kDetected,      ///< receivers reject the frame (=> token loss)
    kGrantView,     ///< grant/ack bits mutated; frame passes the guards
    kSilentMaster,  ///< hp-node index mutated undetectably
  };
  /// What befell the data payload of one completed transfer.
  enum class DataFault {
    kNone,      ///< untouched
    kDetected,  ///< corrupted; the receivers' payload CRC caught it
    kSilent,    ///< corrupted; reaches the application as garbage
  };

  /// Return true to destroy the distribution packet ending `slot`
  /// (token loss: no node learns the next master).
  virtual bool drop_distribution(SlotIndex) { return false; }
  /// Intercepts node `node`'s request record as the collection packet
  /// leaves it (`hop` links downstream of the master; hop 0 is the
  /// master itself).  May mutate `rq`; returns the classification.
  virtual RequestFault filter_request(SlotIndex, NodeId /*hop*/,
                                      NodeId /*node*/, core::Request&) {
    return RequestFault::kNone;
  }
  /// Intercepts the distribution packet ending `slot`.  May mutate `p`;
  /// returns the classification.
  virtual DistributionFault filter_distribution(SlotIndex,
                                                core::DistributionPacket&) {
    return DistributionFault::kNone;
  }
  /// Intercepts the payload of a transfer from `source` whose FINAL slot
  /// is `slot`: `payload_bits` bits rode the data fibres over `hops`
  /// consecutive links (source to furthest destination).  On kDetected
  /// the engine suppresses the delivery and NACKs the source; on kSilent
  /// it delivers the garbage and counts the hazard.
  virtual DataFault filter_data(SlotIndex, NodeId /*source*/,
                                NodeId /*hops*/,
                                std::int64_t /*payload_bits*/) {
    return DataFault::kNone;
  }
};

class Network : private sim::ArrivalProcess {
 public:
  explicit Network(NetworkConfig cfg);
  /// Detaches every listener still attached (they outlive it safely).
  ~Network();
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // -- construction products --------------------------------------------
  [[nodiscard]] const NetworkConfig& config() const { return cfg_; }
  [[nodiscard]] const phy::RingPhy& phy() const { return *phy_; }
  [[nodiscard]] const ring::RingTopology& topology() const { return topo_; }
  [[nodiscard]] const core::SlotTiming& timing() const { return *timing_; }
  [[nodiscard]] const core::ControlTiming& control_timing() const {
    return *control_;
  }
  [[nodiscard]] const core::FrameCodec& codec() const { return *codec_; }
  [[nodiscard]] MacProtocol& protocol() { return *protocol_; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  [[nodiscard]] const sim::Simulator& sim() const { return sim_; }
  [[nodiscard]] core::AdmissionController& admission() { return admission_; }
  [[nodiscard]] const core::AdmissionController& admission() const {
    return admission_;
  }
  [[nodiscard]] Node& node(NodeId id);
  [[nodiscard]] NodeId nodes() const { return cfg_.nodes; }
  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  /// Per-connection accounting (empty record if never released);
  /// reading an id without a record leaves the statistics unchanged.
  [[nodiscard]] const ConnectionStats& connection_stats(
      ConnectionId id) const {
    static const ConnectionStats kEmpty{};
    const auto it = stats_.per_connection.find(id);
    return it == stats_.per_connection.end() ? kEmpty : it->second;
  }
  [[nodiscard]] sim::Duration slot_duration() const {
    return timing_->slot();
  }
  [[nodiscard]] NodeId current_master() const { return master_; }
  [[nodiscard]] SlotIndex current_slot() const { return slot_; }

  // -- user traffic -------------------------------------------------------
  /// Enqueues a message at `src` now.  `relative_deadline` is the EDF
  /// (scheduling) deadline; pass Duration::infinity() for none.
  MessageId send(NodeId src, NodeSet dests, core::TrafficClass cls,
                 std::int64_t size_slots, sim::Duration relative_deadline);

  MessageId send_best_effort(NodeId src, NodeSet dests,
                             std::int64_t size_slots,
                             sim::Duration relative_deadline);
  MessageId send_non_realtime(NodeId src, NodeSet dests,
                              std::int64_t size_slots);
  /// Broadcast = all nodes except the source.
  [[nodiscard]] NodeSet broadcast_dests(NodeId src) const;

  // -- logical real-time connections (admission-controlled) ---------------
  struct OpenResult {
    bool admitted = false;
    ConnectionId id = kNoConnection;
  };
  /// Runs the Eq. 5-6 admission test; on success the connection's key
  /// is armed for its periodic releases (period/deadline in slots of
  /// wall time P_i * t_slot, matching the units of the analysis).
  OpenResult open_connection(const core::ConnectionParams& params);
  /// Closes an RT connection or a CBS server: stops its releases or
  /// jobs, drops its queued messages and releases its bandwidth.  An
  /// unknown or already closed id returns false and changes nothing.
  bool close_connection(ConnectionId id);

  // -- constant-bandwidth servers (soft real-time service class) ----------
  /// Admits a CBS through the same Eq. 5-6 test as an RT connection
  /// (utilisation Q/T; core/cbs.hpp).  Jobs submitted with cbs_send then
  /// ride the best-effort priority band under the SERVER deadline, so
  /// the hard-RT grant order is never perturbed.
  OpenResult open_cbs_server(const core::CbsParams& params);
  /// Submits one aperiodic job of `size_slots` to server `id`; the CBS
  /// wake-up rule assigns its deadline.  Subject to the same source-
  /// failed / full-buffer drop rules as any best-effort send (a dropped
  /// job does not touch the server state).
  MessageId cbs_send(ConnectionId id, std::int64_t size_slots);
  /// The live server state machine, or nullptr when `id` is not open.
  [[nodiscard]] const core::CbsServer* cbs_server(ConnectionId id) const;

  // -- execution -----------------------------------------------------------
  void run_slots(std::int64_t n);
  void run_for(sim::Duration d);

  // -- listeners ------------------------------------------------------------
  /// Appends `l`, not yet attached anywhere, to the listener list.  A
  /// listener never gates or diverges the hypercycle plan.
  void attach(SlotListener& l);
  /// Removes `l` (a no-op when not attached here); safe mid-notification.
  void detach(SlotListener& l);
  /// Attach order = notification order.  During a notification a
  /// detached entry reads nullptr until the loop ends.
  [[nodiscard]] const std::vector<SlotListener*>& listeners() const {
    return listeners_;
  }
  /// Attaches an engine-owned listener calling `obs` on every slot (the
  /// default deadline: the engine steps every slot).
  using SlotObserver = std::function<void(const SlotRecord&)>;
  void add_slot_observer(SlotObserver obs);
  /// Attaches `hook` as the one fault hook, replacing any previous one.
  /// This diverges any in-effect hypercycle plan: the plan's precomputed
  /// outcomes no longer model the wire.
  void set_fault_hook(FaultHook& hook);

  /// Fail-silent node (fault experiments); queued messages are dropped.
  /// Idempotent: failing an already-failed node is a no-op (no queue
  /// clearing, no CBS backlog reset) and returns false.
  bool fail_node(NodeId id);
  /// Idempotent: restoring a healthy node is a no-op, returns false.
  bool restore_node(NodeId id);

  /// Hard severed-segment fault: link `l` (node l to its downstream
  /// neighbour) carries nothing -- control, data or clock -- until
  /// spliced.  The collection packet dies at the severed hop, so the
  /// master's heard evidence truncates to the contiguous reachable
  /// prefix (a loss pattern distinguishable from a single node death),
  /// transfers whose segment crosses the cut are masked out of
  /// arbitration, and with a single cut the master re-anchors to the
  /// cut's downstream endpoint, where the clock-break link coincides
  /// with the severed link and every surviving node stays heard.  Two or
  /// more simultaneous cuts partition the ring: it parks dark (counted
  /// in FaultStats::ring_dark) until splices bring it back to <= 1.
  /// Idempotent: cutting a severed link is a no-op, returns false.
  bool cut_link(LinkId l);
  /// Repairs a severed link.  Idempotent: splicing an intact link is a
  /// no-op, returns false.
  bool splice_link(LinkId l);
  /// Currently severed links (empty on a healthy ring).
  [[nodiscard]] LinkSet severed_links() const { return severed_; }
  /// The master position degraded mode re-anchors to: the first live
  /// node downstream of the single severed link (its clock-break link
  /// is then the cut itself).  kInvalidNode when the ring is intact,
  /// dark (>= 2 cuts) or has no live node downstream of the cut.
  [[nodiscard]] NodeId degraded_anchor() const;

  /// Open hard-RT connections sourced at `src`, in id order.  The order
  /// matters: quarantine (services::ResilienceMonitor) enumerates these
  /// to close them, and every downstream admission id depends on it.
  struct OpenConnectionInfo {
    ConnectionId id = kNoConnection;
    core::ConnectionParams params;
  };
  [[nodiscard]] std::vector<OpenConnectionInfo> connections_of(
      NodeId src) const;
  /// Open CBS servers sourced at `src`, in id order (same contract).
  struct OpenCbsInfo {
    ConnectionId id = kNoConnection;
    core::CbsParams params;
  };
  [[nodiscard]] std::vector<OpenCbsInfo> cbs_servers_of(NodeId src) const;

  /// Count of token-loss recoveries performed.
  [[nodiscard]] std::int64_t recoveries() const {
    return stats_.faults.recoveries;
  }
  /// Wall time lost to recovery timeouts.
  [[nodiscard]] sim::Duration recovery_time() const {
    return sim::Duration::picoseconds(
        stats_.faults.recovery_gap.sum_exact());
  }

  /// Nodes with a message waiting to transmit right now: a non-empty
  /// EDF queue, or a planned message held while a plan drives (dirty-node
  /// tracking; maintained incrementally at every queue mutation site).
  [[nodiscard]] NodeSet queued_nodes() const { return soa_.queued; }
  /// Nodes currently failed (mirror of the per-node flags as a mask).
  [[nodiscard]] NodeSet failed_nodes() const { return soa_.failed; }

  // -- hypercycle planner (NetworkConfig::planner) -------------------------
  /// True while a built plan covers the open connection set (it may
  /// have diverged; see plan_engaged).  Always false with planner off.
  [[nodiscard]] bool plan_valid() const { return plan_valid_; }
  /// True while the plan actually drives slot decisions: valid and not
  /// yet diverged to slot-by-slot TCMA.
  [[nodiscard]] bool plan_engaged() const {
    return plan_valid_ && !plan_diverged_;
  }
  /// The planner instance (nullptr when NetworkConfig::planner is off).
  [[nodiscard]] const core::HypercyclePlanner* planner() const {
    return planner_.get();
  }

 private:
  /// Struct-of-arrays hot state: everything the per-slot pipeline reads
  /// or writes for "which nodes matter this slot" lives in parallel flat
  /// arrays indexed by node, guarded by bitmask sets -- so the steady
  /// state touches O(active nodes), not O(N), and the fast-forward
  /// predicate is a handful of mask tests.
  struct SoaState {
    /// Nodes with at least one queued or held message (candidates for
    /// the collection phase; kept in sync at every queue mutation).
    NodeSet queued;
    /// Nodes holding planned messages outside their EDF queues
    /// (ConnState::held), and how many each holds.
    NodeSet holding;
    std::array<std::size_t, kMaxNodes> held_count{};
    /// Nodes in fail-silent state: a failed node neither requests slots
    /// nor accepts deliveries; its ribbon is optically bypassed so the
    /// ring stays closed.
    NodeSet failed;
    /// Nodes with a live request->message binding from the last
    /// collection phase (replaces an array of optionals: clearing all
    /// bindings is one mask store).
    NodeSet bound;
    // Parallel binding arrays, valid where `bound` has the bit set.
    // bind_msg doubles as a geometry memo across slots: message ids are
    // never reused and a message's destination set is immutable, so
    // while a head message waits for its grant (bind_msg unchanged) the
    // segment computation is skipped and hops/links/dests are reused.
    std::array<MessageId, kMaxNodes> bind_msg{};
    std::array<NodeId, kMaxNodes> bind_hops{};  // to furthest destination
    std::array<LinkSet, kMaxNodes> bind_links{};
    std::array<NodeSet, kMaxNodes> bind_dests{};
    /// Propagation to the furthest destination: a completion's delivery
    /// instant is its slot end plus this delay.
    std::array<sim::Duration, kMaxNodes> bind_delay{};
    /// Connection of the bound message (kNoConnection for plain sends);
    /// lets the grant path find the owning CBS server without a queue
    /// lookup.
    std::array<ConnectionId, kMaxNodes> bind_conn{};
  };
  /// Everything the engine keeps for one admitted id: an RT connection
  /// or a CBS server, open or closed.
  struct ConnState {
    enum class Kind : std::uint8_t { kClosed, kRealTime, kCbs };
    Kind kind = Kind::kClosed;
    NodeId source = kInvalidNode;
    /// stats_.per_connection[id], set on the id's first release or
    /// delivery (map nodes are pointer-stable and never erased).
    ConnectionStats* stats = nullptr;
    /// What admission weighed (a CBS server's admission_params()); the
    /// close releases exactly these.
    core::ConnectionParams params;
    // RT connection: the periodic releases (the network's key `id`).
    sim::TimePoint base;  // time of release 0
    std::int64_t released = 0;
    /// Messages released while a plan drives, oldest first, kept out of
    /// the source's EDF queues: the cursor binds the front and
    /// execute_grants consumes it in place (plan order is FIFO per
    /// connection).  A plan keeps deadlines within periods, so this holds
    /// one or two messages and, once warm, never allocates again.
    std::vector<core::Message> held;
    // CBS server: the pure core::CbsServer plus the engine-side backlog
    // tracking that feeds the wake-up rule.
    std::optional<core::CbsServer> server;
    std::int64_t backlog = 0;  // jobs queued or in service at the source
  };

  /// The one loop behind run_slots and run_for: runs up to `max_slots`
  /// slots, each starting before `horizon`.  Every slot it does not skip
  /// runs the fixed phases of the header comment inline in the loop.
  void advance(std::int64_t max_slots, sim::TimePoint horizon);
  /// The one skip rule.  When nothing is in flight and the next
  /// decisions are provably "grant nobody, keep the master" -- the idle
  /// fixed point, or a plan wait before the next bundle's release
  /// instant -- accounts that window in O(1).  The window ends before
  /// the next event (or plan-table release), the plan's next eligible
  /// bundle and every listener's deadline, and covers at most
  /// `max_slots` slots starting before `horizon`.  Returns the number
  /// skipped (0 = the next slot must be simulated).
  std::int64_t skip_quiet_slots(std::int64_t max_slots,
                                sim::TimePoint horizon);
  void execute_grants(SlotRecord& rec, sim::TimePoint slot_end);
  void collect_requests(std::vector<core::Request>& reqs);
  /// Passes the distribution packet ending this slot through the fault
  /// hook and applies the receivers' reaction to `plan` and `rec`;
  /// returns true when the outcome is a token loss.
  bool apply_distribution_fault(SlotPlan& plan, SlotRecord& rec);
  /// Token-loss recovery (paper §8): the designated restarter (or its
  /// first live downstream deputy) restarts the clock after the timeout;
  /// grants are voided.  Sets plan's next master, returns the gap.
  sim::Duration recover_token_loss(SlotPlan& plan);
  /// The first live node at or downstream of `from`, or kInvalidNode
  /// when every node has failed.
  [[nodiscard]] NodeId first_live_from(NodeId from) const;
  /// Severed-link override of the decision (PROTOCOL.md §7.5): two or
  /// more cuts park the ring dark, a single cut re-anchors the master at
  /// its downstream endpoint.  Returns the hand-over gap that results.
  sim::Duration apply_cuts(SlotPlan& plan, sim::Duration gap, bool token_lost);
  /// Consults the plan cursor for the decision phase of the current
  /// slot (start slot_start_, master master_): on an eligible bundle it
  /// binds each granted connection's held front, advances the cursor and
  /// returns the bundle's grants; otherwise the idle wait decision.  A
  /// granted connection holding nothing (its messages were dropped)
  /// marks divergence and returns the idle decision.
  SlotPlan plan_next_from_cursor();
  /// Release instant of the bundle the cursor points at (the earliest
  /// slot start that can grant it).
  [[nodiscard]] sim::TimePoint plan_next_eligible_time() const;
  /// Re-derives the plan from the open connection set (admit/close
  /// time).  The plan only builds from plan_can_build()'s state with
  /// every connection still unreleased and grid-aligned; otherwise the
  /// engine stays on slot-by-slot TCMA.
  void rebuild_plan();
  /// The clean engine state a plan builds from, and the only one in
  /// which a rejected admission is retried through the planner's
  /// constructive proof: CCR-EDF, no fault hook, no CBS, no failed node,
  /// an intact ring (the grant layout assumes one), no grant in flight
  /// and no message queued (the plan anchors on a clean slot boundary:
  /// its feasibility sim releases every job at its nominal instant).
  [[nodiscard]] bool plan_can_build() const;
  /// Sticky divergence: the plan stays valid but stops driving slots
  /// until the next successful rebuild.  Releases fall back to the
  /// connections' keys (plan_restore_releases) in the same breath.  The
  /// held messages stay held: the slot whose decision source is already
  /// latched to the plan may still bind them, so they join the EDF
  /// queues only when collection decides again (flush_held).
  void mark_plan_diverged() {
    if (plan_valid_ && !plan_diverged_) {
      plan_diverged_ = true;
      ++stats_.plan_divergences;
      plan_restore_releases();
    }
  }
  /// Moves every held message into its source's EDF queues (the first
  /// collection phase after the plan stopped driving).
  void flush_held();
  /// Drops the messages connection `c` holds (close, source failure).
  void drop_held(ConnState& c);
  /// The connection whose oldest held message is the one bound at node
  /// `g`, or nullptr when g's binding is not a held message.
  [[nodiscard]] ConnState* bound_holder(NodeId g) {
    if (!soa_.holding.contains(g) || soa_.bind_conn[g] >= conns_.size()) {
      return nullptr;
    }
    ConnState& c = conns_[soa_.bind_conn[g]];
    if (c.held.empty() || c.held.front().id != soa_.bind_msg[g]) {
      return nullptr;
    }
    return &c;
  }
  /// Messages waiting at `src`, queued or held (the tail-drop count).
  [[nodiscard]] std::size_t waiting_messages(NodeId src) const {
    return nodes_[src].queues().size() + soa_.held_count[src];
  }
  /// Notifies the dirty-node tracking that `src`'s queue may have
  /// drained (after a consume/drop/clear).
  void refresh_queued_bit(NodeId src);
  /// Clock hand-over gap from the table filled at construction.
  [[nodiscard]] sim::Duration handover_gap(NodeId from, NodeId to) const {
    return gap_[static_cast<std::size_t>(from) * cfg_.nodes + to];
  }
  /// Calls `f` on each listener in attach order; a detach during the
  /// loop leaves a hole that is skipped, then compacted.
  template <typename F>
  void notify(F&& f);
  /// Releases connection `id`'s next message; returns max(next, now).
  sim::TimePoint arrive(std::uint32_t id) override;
  [[nodiscard]] sim::TimePoint next_release(const ConnState& c) const {
    return c.base + timing_->slot() * (c.params.period_slots * c.released);
  }
  /// Releases open connection `id`'s next periodic message (shared by
  /// the key and the plan-driven release table).
  void fire_release(ConnectionId id);
  /// Plan adoption: disarms every connection's key and replaces the keys
  /// with the precomputed cyclic release table -- the plan knows the
  /// whole periodic schedule, so the per-message heap re-key vanishes
  /// from the planned hot path.
  void plan_adopt_releases();
  /// Disarms the network's keys, re-arms every open connection's key in
  /// id order and tears the table down (divergence / plan teardown).
  void plan_restore_releases();
  /// Fires every table release due at or before `upto`, in grid order.
  void plan_release_due(sim::TimePoint upto) {
    if (upto >= plan_release_at_) plan_release_due_slow(upto);
  }
  void plan_release_due_slow(sim::TimePoint upto);
  /// Charges one granted data slot to the CBS server owning the message
  /// bound at node `g` (no-op for non-CBS traffic); on budget exhaustion
  /// the server postpones and its queued backlog is re-keyed.
  void charge_cbs(NodeId g, bool completed);
  MessageId enqueue(NodeId src, NodeSet dests, core::TrafficClass cls,
                    std::int64_t size_slots, sim::TimePoint deadline,
                    ConnectionId conn, sim::TimePoint arrival);
  [[nodiscard]] core::Priority priority_of(const core::Message& m,
                                           sim::TimePoint sample) const;
  /// The entry of an id admission handed out (fresh ids only).
  ConnState& new_conn(ConnectionId id) {
    if (id >= conns_.size()) conns_.resize(id + std::size_t{1});
    return conns_[id];
  }
  /// stats_.per_connection[id] through the id's entry, so the per-message
  /// path indexes an array instead of searching the map.
  [[nodiscard]] ConnectionStats& stats_of(ConnectionId id) {
    ConnState& c = conns_[id];
    if (c.stats == nullptr) c.stats = &stats_.per_connection[id];
    return *c.stats;
  }

  NetworkConfig cfg_;
  std::unique_ptr<phy::RingPhy> phy_;
  ring::RingTopology topo_;
  std::unique_ptr<core::SlotTiming> timing_;
  std::unique_ptr<core::ControlTiming> control_;
  std::unique_ptr<core::FrameCodec> codec_;
  std::unique_ptr<MacProtocol> protocol_;
  core::AdmissionController admission_;
  sim::Simulator sim_;
  std::vector<Node> nodes_;
  std::vector<SlotListener*> listeners_;
  /// True while a loop over listeners_ runs: detach then leaves a
  /// nullptr hole, compacted when the loop ends.
  bool notifying_ = false;
  /// The listeners behind add_slot_observer.
  std::vector<std::unique_ptr<SlotListener>> observers_;
  FaultHook* fault_hook_ = nullptr;

  // Severed-segment state (empty/false on a healthy ring).
  LinkSet severed_;
  /// A cut landed and no collection phase has run under it yet: the
  /// next simulated slot's collection classifies the loss pattern and
  /// books the in-protocol detection latency.
  bool cut_detect_pending_ = false;
  SlotIndex cut_detect_from_ = 0;

  // Slot-engine state.
  SlotIndex slot_ = 0;
  sim::TimePoint slot_start_;
  NodeId master_ = 0;
  SoaState soa_;
  NodeSet current_granted_;
  /// Nodes whose entry in rec_.requests is live this slot; clearing the
  /// reused request vector touches only these entries next slot.
  NodeSet requesters_;
  /// Per-slot scratch, reused so steady-state slots stay allocation-free.
  SlotRecord rec_;
  /// Precomputed collection sampling offsets, flat [master * N + node]
  /// (kills the per-node path_delay recomputation the profile blamed for
  /// ~15% of slot time), plus each master's last-sample offset.
  std::vector<sim::Duration> sample_off_;
  std::array<sim::Duration, kMaxNodes> last_sample_off_{};
  /// The protocol's hand-over gaps, flat [from * N + to] (no virtual
  /// call per slot).
  std::vector<sim::Duration> gap_;

  // Hypercycle-planner state (null/false unless NetworkConfig::planner).
  std::unique_ptr<core::HypercyclePlanner> planner_;
  bool plan_valid_ = false;
  bool plan_diverged_ = false;
  /// Cursor over the plan: next transient bundle, then position within
  /// the cyclic window and the occurrence count.
  std::size_t plan_prefix_pos_ = 0;
  std::size_t plan_cycle_pos_ = 0;
  std::int64_t plan_cycle_no_ = 0;
  /// One cyclic-release-table entry: connection `conn` releases a
  /// message at grid slots first_abs, first_abs + H, first_abs + 2H, ...
  /// (rel = first_abs mod H keys the sorted table; visits of the entry
  /// at abs < first_abs are start-up transients and fire nothing).
  struct PlanRelease {
    std::int64_t rel = 0;
    std::int64_t first_abs = 0;
    ConnectionId conn = kNoConnection;  // index into conns_
  };
  /// The plan-driven release schedule for one hypercycle, sorted by rel
  /// (non-empty exactly while the keys are disarmed).  Bounded: adoption
  /// skips (keeping the keys) when sum H/P_i exceeds
  /// kMaxPlanReleaseEntries, so a pathological grid cannot balloon it.
  static constexpr std::size_t kMaxPlanReleaseEntries = std::size_t{1} << 20;
  std::vector<PlanRelease> plan_releases_;
  std::size_t plan_release_idx_ = 0;
  std::int64_t plan_release_cycle_ = 0;
  /// Grid instant of the table cursor's next candidate (infinity while
  /// the table is inactive); bounds a skip window exactly like an armed
  /// release key would.
  sim::TimePoint plan_release_at_ = sim::TimePoint::infinity();

  /// Every id admission ever handed out, indexed by its (dense, never
  /// reused) ConnectionId, so every walk runs in id order.
  std::vector<ConnState> conns_;
  /// Open CBS servers (zero on RT-only runs: the CBS hook in the slot
  /// path is gated on it).
  std::size_t open_cbs_ = 0;
  /// Sources whose transfers completed last slot (ack bits for the next
  /// distribution packet when with_acks is enabled).
  NodeSet pending_acks_;
  /// Sources whose transfers failed the payload CRC last slot (NACK bits
  /// for the next distribution packet; with_acks + with_payload_crc).
  NodeSet pending_nacks_;
  MessageId next_message_id_ = 1;
  NetworkStats stats_;
};

}  // namespace ccredf::net
