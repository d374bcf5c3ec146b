// Constant Bandwidth Server (Abeni & Buttazzo) for aperiodic traffic.
//
// The paper names three service classes but analyses only the guaranteed
// periodic one (§5-6).  A CBS gives aperiodic/bursty sources isolated
// bandwidth without endangering the hard guarantees: a server with
// budget Q slots per period T slots is admitted through the Eq. 5 test
// exactly like a periodic connection of utilisation Q/T, and every job
// it serves carries the SERVER deadline instead of a per-message
// deadline.  Because the server set passes the same utilisation bound,
// the EDF analysis over connections-plus-servers is unchanged -- the
// classic CBS isolation theorem.
//
// Rules implemented (slot-granular, all integer arithmetic):
//   * arrival to an idle server at time t: if the pair (c, d) could
//     exceed the reserved bandwidth -- c >= (d - t) * Q/T -- the server
//     recharges: c = Q, d = t + T.  Otherwise the job inherits the
//     current (c, d).
//   * arrival to a backlogged server: the job queues behind the
//     in-service one and inherits the server deadline as it stands.
//   * each granted data slot consumes one budget unit; at c == 0 the
//     server POSTPONES: c = Q, d = d + T.  Queued jobs of the server are
//     re-keyed to the postponed deadline (EdfQueueSet::
//     reschedule_connection), so an overrunning server slides itself
//     down the EDF order instead of starving its peers.
//
// Time base: deadlines advance in wall time by T * t_slot, the same unit
// convention the periodic release machinery and the Eq. 5-6 analysis
// use (net::Network::open_connection).
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/nodeset.hpp"
#include "common/types.hpp"
#include "core/connection.hpp"
#include "sim/time.hpp"

namespace ccredf::core {

struct CbsParams {
  NodeId source = kInvalidNode;
  /// Destination set jobs are sent to (unicast or multicast, fixed per
  /// server like a connection's).
  NodeSet dests;
  /// Budget Q in slots per period (>= 1).
  std::int64_t budget_slots = 1;
  /// Replenishment period T in slots (>= budget).
  std::int64_t period_slots = 1;

  /// Reserved utilisation Q/T -- the Eq. 5 summand of the server.
  [[nodiscard]] double utilisation() const {
    return static_cast<double>(budget_slots) /
           static_cast<double>(period_slots);
  }

  void validate() const {
    CCREDF_EXPECT(budget_slots >= 1, "cbs: budget must be >= 1 slot");
    CCREDF_EXPECT(period_slots >= budget_slots,
                  "cbs: period must be >= budget");
    CCREDF_EXPECT(!dests.empty(), "cbs: no destinations");
    CCREDF_EXPECT(!dests.contains(source),
                  "cbs: source cannot be a destination");
  }

  /// The parameters the admission controller weighs: a server of budget
  /// Q per period T weighs exactly like a periodic connection e = Q,
  /// P = T -- the CBS admission hook.  The network keeps them in the
  /// server's connection-table entry and releases them on close.
  [[nodiscard]] ConnectionParams admission_params() const {
    ConnectionParams p;
    p.source = source;
    p.dests = dests;
    p.size_slots = budget_slots;
    p.period_slots = period_slots;
    return p;
  }
};

/// The per-server state machine.  Pure (no network dependency): the slot
/// engine drives it via on_arrival / charge_slot and propagates the
/// deadline it reports into the EDF queues.
class CbsServer {
 public:
  /// `slot` is the data-slot wall duration t_slot (core::SlotTiming).
  CbsServer(const CbsParams& params, sim::Duration slot)
      : params_(params),
        period_wall_(slot * params.period_slots),
        budget_(params.budget_slots),
        deadline_(sim::TimePoint::origin()) {
    params_.validate();
    CCREDF_EXPECT(slot > sim::Duration::zero(),
                  "CbsServer: slot duration must be positive");
  }

  /// Applies the CBS wake-up rule for a job arriving at `now` and
  /// returns the absolute server deadline the job must carry.
  /// `backlogged` = the server already has queued or in-flight work (a
  /// backlogged arrival never recharges -- it inherits the deadline).
  sim::TimePoint on_arrival(sim::TimePoint now, bool backlogged) {
    if (!backlogged && exceeds_bandwidth(now)) {
      budget_ = params_.budget_slots;
      deadline_ = now + period_wall_;
      ++recharges_;
    }
    return deadline_;
  }

  /// Consumes one granted data slot of budget.  Returns true when the
  /// budget exhausted and the server postponed (budget refilled, the
  /// deadline moved one period later) -- the caller must then re-key the
  /// server's queued messages to deadline().
  bool charge_slot() {
    CCREDF_ASSERT(budget_ > 0);
    if (--budget_ > 0) return false;
    budget_ = params_.budget_slots;
    deadline_ = deadline_ + period_wall_;
    ++postponements_;
    return true;
  }

  [[nodiscard]] const CbsParams& params() const { return params_; }
  /// The current absolute server deadline (EDF key of every queued job).
  [[nodiscard]] sim::TimePoint deadline() const { return deadline_; }
  [[nodiscard]] std::int64_t budget_remaining() const { return budget_; }
  /// Wake-up recharges performed (c = Q, d = t + T).
  [[nodiscard]] std::int64_t recharges() const { return recharges_; }
  /// Budget-exhaustion postponements performed (c = Q, d += T).
  [[nodiscard]] std::int64_t postponements() const { return postponements_; }

 private:
  /// The wake-up test c >= (d - now) * Q/T, rearranged to the
  /// division-free-on-the-left form (d - now) <= c * T_wall / Q.
  /// Integer truncation of the right side only makes the recharge LESS
  /// eager, which stays on the bandwidth-safe side.
  [[nodiscard]] bool exceeds_bandwidth(sim::TimePoint now) const {
    if (deadline_ <= now) return true;
    const std::int64_t bound_ps =
        budget_ * (period_wall_.ps() / params_.budget_slots);
    return (deadline_ - now).ps() <= bound_ps;
  }

  CbsParams params_;
  sim::Duration period_wall_;  // T * t_slot
  std::int64_t budget_;        // c, in slots
  sim::TimePoint deadline_;    // d (absolute)
  std::int64_t recharges_ = 0;
  std::int64_t postponements_ = 0;
};

}  // namespace ccredf::core
