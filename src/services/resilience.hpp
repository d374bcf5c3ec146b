// In-protocol failure detection, bandwidth reclamation and staged
// re-admission (closes the failure loop the paper's §8 leaves open).
//
// Evidence: every healthy node writes a request record -- a live request
// or the idle record whose start bit alone proves the writer -- into the
// collection packet each slot, so the master hears the whole live ring
// once per slot for free.  SlotRecord::heard exposes exactly that set;
// the monitor adds NO wire traffic and NO protocol field.
//
// State machine per node (driven only by `heard`):
//   kUp --(unheard > suspect_window)--> kSuspect
//   kSuspect --(unheard > detection_window)--> kDown
//   any --(heard)--> kUp
// On kDown the node's sourced connections and CBS servers are
// QUARANTINED: closed through the normal teardown paths, their Eq. 5/6
// weight (CBS servers at Q/T) released back to the AdmissionController
// -- survivors can immediately be admitted into the freed bandwidth.
// Quarantined connections enter a re-admission queue.
//
// When a down node is heard again (restore, or a false positive caused
// by a burst of lost records), its queued connections become eligible
// and are re-opened STAGED: a token bucket (readmit_burst capacity,
// one token per readmit_interval_slots) paces the re-runs of the
// admission test, and a rejected entry backs off exponentially -- so a
// repaired node cannot retake its bandwidth in one thundering herd while
// survivors hold it.  Re-opened connections get FRESH ids (admission
// never reuses ids); current_incarnation() maps a quarantined id to its
// live successor.
//
// Severed segments (third quarantine kind, *segment-down*): a hard link
// cut truncates the collection packet, so the master hears a contiguous
// unreachable suffix go silent -- a loss pattern the monitor excuses
// from the per-node miss accounting (the nodes are alive; only the path
// died).  Instead it adopts the network's severed-link view, closes
// exactly the cut-crossing connections/CBS servers (same teardown and
// reclaim-exactness invariant as a node quarantine), derates the
// admission capacity to the surviving-region pair fraction (0.5 for any
// single cut), and parks the closed entries until their links are
// spliced -- then the same token bucket stages their re-admission.
//
// Determinism: the monitor is a net::SlotListener whose deadline keeps
// the engine's idle fast-forward enabled.  next_deadline_slot() bounds
// every skip at the earliest slot where a suspect/down transition or an
// eligible re-admission drain could occur, and on_skip() batch-advances
// the bookkeeping for the skipped window -- byte-identical statistics
// between fast-forward and slot-by-slot execution
// (tests/sweep/churn_sweep_test.cpp pins it).  It never gates the
// hypercycle plan: on an engaged plan no node is failed and no link is
// cut, so it hears everyone and acts on nothing, and every action it
// takes later goes through open/close calls that re-derive the plan.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include "common/error.hpp"
#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "core/cbs.hpp"
#include "core/connection.hpp"
#include "net/network.hpp"
#include "sim/stats.hpp"

namespace ccredf::services {

struct ResilienceParams {
  /// Slots a node may go unheard before it is declared DOWN (the
  /// detection deadline; latency is at most this + 1 slots, see
  /// PROTOCOL.md §7.4).  Must absorb single master-dead slots, which
  /// void one slot of evidence for EVERYONE (>= 2; realistic >= 8).
  std::int64_t detection_window_slots = 16;
  /// Slots unheard before a node is marked SUSPECT (observability only;
  /// no action is taken).  0 selects detection_window_slots / 2.
  std::int64_t suspect_window_slots = 0;
  /// Token-bucket refill period for staged re-admission: one
  /// re-admission attempt earns per this many slots.
  std::int64_t readmit_interval_slots = 8;
  /// Token-bucket capacity (maximum attempts in one slot).
  std::int64_t readmit_burst = 2;
  /// Base back-off after a rejected re-admission attempt, in slots;
  /// doubles per consecutive rejection of the same entry.
  std::int64_t backoff_slots = 64;
  /// Back-off ceiling.
  std::int64_t max_backoff_slots = 4096;

  void validate() const {
    CCREDF_EXPECT(detection_window_slots >= 2,
                  "resilience: detection window must be >= 2 slots");
    CCREDF_EXPECT(suspect_window_slots >= 0 &&
                      suspect_window_slots < detection_window_slots,
                  "resilience: suspect window must be < detection window");
    CCREDF_EXPECT(readmit_interval_slots >= 1,
                  "resilience: readmit interval must be >= 1");
    CCREDF_EXPECT(readmit_burst >= 1, "resilience: readmit burst must be >= 1");
    CCREDF_EXPECT(backoff_slots >= 1, "resilience: backoff must be >= 1");
    CCREDF_EXPECT(max_backoff_slots >= backoff_slots,
                  "resilience: backoff ceiling below base");
  }
};

struct ResilienceStats {
  /// kUp -> kSuspect transitions observed.
  std::int64_t suspects = 0;
  /// Nodes declared DOWN (each declaration, including repeats).
  std::int64_t downs = 0;
  /// Down nodes heard again (restores and false-positive self-heals).
  std::int64_t reappearances = 0;
  /// Hard-RT connections quarantined by declarations.
  std::int64_t connections_quarantined = 0;
  /// CBS servers quarantined by declarations.
  std::int64_t servers_quarantined = 0;
  /// Eq. 5/6 weight released back to admission by quarantines.
  double weight_reclaimed = 0.0;
  /// Weight successfully re-admitted from the queue.
  double weight_readmitted = 0.0;
  /// Segment-down events acted on (each fresh-cut observation, however
  /// many transfers it closed).
  std::int64_t segment_downs = 0;
  /// Connections + CBS servers closed by segment-down quarantines (the
  /// third quarantine kind: the source is alive but the transfer's
  /// segment crosses a severed link).
  std::int64_t segment_quarantines = 0;
  /// Re-admission attempts charged against the token bucket.
  std::int64_t readmit_attempts = 0;
  /// ... of which the admission test accepted.
  std::int64_t readmissions = 0;
  /// ... of which it rejected (entry backs off).
  std::int64_t readmit_rejections = 0;
  /// Slots from last heard record to declaration, per declaration.
  sim::ExactStats detection_latency_slots;
  /// Worst observed |utilisation drop - released weight| across
  /// quarantines: the reclamation-exactness invariant (the E22 and E24
  /// claims gate this at 1e-9).
  double reclaim_error = 0.0;
};

class ResilienceMonitor final : public net::SlotListener {
 public:
  enum class NodeState : std::uint8_t { kUp, kSuspect, kDown };

  /// Attaches to `net` until destroyed.  One monitor per network: a
  /// second one is a configuration error.
  ResilienceMonitor(net::Network& net, ResilienceParams params);

  [[nodiscard]] const ResilienceParams& params() const { return params_; }
  [[nodiscard]] const ResilienceStats& stats() const { return stats_; }
  [[nodiscard]] NodeState state(NodeId id) const {
    return tracked_[id].state;
  }
  [[nodiscard]] bool is_down(NodeId id) const {
    return tracked_[id].state == NodeState::kDown;
  }
  /// Entries waiting in the staged re-admission queue.
  [[nodiscard]] std::size_t readmit_queue_depth() const {
    return queue_.size();
  }
  /// Eq. 5/6 weight currently held in quarantine (reclaimed minus
  /// re-admitted).
  [[nodiscard]] double quarantined_weight() const {
    return stats_.weight_reclaimed - stats_.weight_readmitted;
  }
  /// The live successor of a (possibly quarantined) connection id:
  /// follows the re-admission chain; kNoConnection while the connection
  /// sits in the queue.  Ids never touched by quarantine map to
  /// themselves.
  [[nodiscard]] ConnectionId current_incarnation(ConnectionId id) const;

  // net::SlotListener
  void on_slot(const net::SlotRecord& rec) override;
  void on_skip(SlotIndex first, std::int64_t k, NodeSet heard) override;
  [[nodiscard]] SlotIndex next_deadline_slot(SlotIndex from,
                                             SlotIndex limit) override;

 private:
  struct Tracked {
    NodeState state = NodeState::kUp;
    /// Last slot whose collection phase evidenced this node; the slot
    /// before attachment initially (every node starts with zero miss).
    SlotIndex last_heard = -1;
  };
  struct PendingReadmit {
    NodeId node = kInvalidNode;
    bool is_cbs = false;
    core::ConnectionParams rt{};  // valid when !is_cbs
    core::CbsParams cbs{};        // valid when is_cbs
    ConnectionId former_id = kNoConnection;
    /// First slot this entry may spend a token (back-off gate).
    SlotIndex eligible = 0;
    /// Consecutive rejections (exponential back-off exponent).
    std::int64_t rejections = 0;
    /// Segment-down entry: parked until every link in `cut_links` is
    /// spliced (instead of until its node reappears).
    bool segment = false;
    LinkSet cut_links{};
  };

  void heard_node(NodeId j, SlotIndex s);
  void declare_down(NodeId j, SlotIndex s);
  /// Adopts the network's severed-link view: a fresh cut quarantines
  /// every cut-crossing transfer, and any change renegotiates the
  /// admission capacity to the surviving-region fraction.
  void sync_severed(SlotIndex s);
  /// Closes and parks what `sources` originate (ascending; each one's
  /// connections, then CBS servers, in id order) and checks the released
  /// Eq. 5/6 weight against the utilisation drop (E22's invariant).  A
  /// `segment` quarantine takes only the transfers crossing a cut.
  void quarantine(NodeSet sources, SlotIndex s, bool segment);
  /// Eq. 5/6 weight of a parked entry.
  [[nodiscard]] double weight(const PendingReadmit& p) const;
  void renegotiate_capacity();
  void drain_readmissions(SlotIndex s);
  [[nodiscard]] std::int64_t tokens_at(SlotIndex s) const;

  net::Network& net_;
  ResilienceParams params_;
  std::int64_t suspect_window_;  // resolved (params 0 -> window/2)
  ResilienceStats stats_;
  std::array<Tracked, kMaxNodes> tracked_{};
  std::deque<PendingReadmit> queue_;
  /// Quarantined id -> its re-admitted successor (kNoConnection while
  /// queued).  Chains across repeated quarantines.
  std::unordered_map<ConnectionId, ConnectionId> incarnation_;
  // Lazy token bucket, pure slot arithmetic (identical under
  // fast-forward): tokens_ held at slot anchor_, refilled on demand.
  SlotIndex anchor_ = 0;
  std::int64_t tokens_ = 0;
  /// The severed-link view the monitor has acted on; a mismatch with the
  /// network's live view forces slot-by-slot execution until synced
  /// (next_deadline_slot), making the cut hand-off byte-deterministic
  /// through fast-forward.
  LinkSet severed_seen_;
};

}  // namespace ccredf::services
