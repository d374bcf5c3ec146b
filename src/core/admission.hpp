// Online admission control for logical real-time connections (paper §6).
//
// A designated node solely handles addition and removal of connections.
// The test is the EDF utilisation bound of Eq. 5: the new connection is
// admitted iff U(Ma) + e/P <= U_max, with U_max from Eq. 6.  Connections
// are "well behaved": sources honour the agreed parameters (enforced by
// the traffic generators, checked by tests).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/connection.hpp"
#include "sim/time.hpp"

namespace ccredf::core {

/// Which feasibility test guards admission.
enum class AdmissionPolicy {
  /// Eq. 5 verbatim: sum(e_i / P_i) <= U_max.  Exact for the paper's
  /// model where every relative deadline equals the period (§5).
  kUtilisation,
  /// Density test: sum(e_i / min(D_i, P_i)) <= U_max.  A sufficient
  /// (conservative) condition that stays safe when connections use
  /// constrained deadlines D_i < P_i -- an extension beyond the paper.
  kDensity,
};

class AdmissionController {
 public:
  explicit AdmissionController(
      double u_max, AdmissionPolicy policy = AdmissionPolicy::kUtilisation)
      : u_max_(u_max), policy_(policy) {}

  [[nodiscard]] AdmissionPolicy policy() const { return policy_; }

  /// The admission weight of one connection under the active policy.
  [[nodiscard]] double weight(const ConnectionParams& params) const;

  struct Decision {
    bool admitted = false;
    ConnectionId id = kNoConnection;
    /// Utilisation of the accepted set after the decision.
    double utilisation_after = 0.0;
  };

  /// Runs the admission test at time `now`; on success the connection
  /// enters the accepted set Ma and receives a fresh id.
  Decision request(const ConnectionParams& params, sim::TimePoint now);

  /// Admits WITHOUT the Eq. 5 bound test: the caller holds a stronger
  /// feasibility proof (the hypercycle planner's exact constructive
  /// schedule, core/hypercycle.hpp).  The connection still enters Ma
  /// and its weight still counts toward utilisation(), which may then
  /// legitimately exceed effective_u_max().
  Decision admit_unchecked(const ConnectionParams& params,
                           sim::TimePoint now);

  /// Removes a connection from Ma; returns false if unknown.
  bool release(ConnectionId id);

  [[nodiscard]] double u_max() const { return u_max_; }
  /// Degraded-mode capacity scaling in [0,1] (graceful degradation): a
  /// health monitor derates the admission bound when retransmission
  /// overhead eats into the schedulable capacity.  1 = full capacity.
  void set_capacity_factor(double factor);
  [[nodiscard]] double capacity_factor() const { return capacity_factor_; }
  /// Degraded-mode renegotiations: calls of set_capacity_factor that
  /// changed the factor (services::AdmissionAgent,
  /// services::ResilienceMonitor).
  [[nodiscard]] std::int64_t renegotiations() const {
    return renegotiations_;
  }
  /// The bound actually enforced: U_max scaled by the capacity factor.
  [[nodiscard]] double effective_u_max() const {
    return u_max_ * capacity_factor_;
  }
  [[nodiscard]] double utilisation() const { return utilisation_; }
  [[nodiscard]] std::size_t active_connections() const { return ma_.size(); }
  [[nodiscard]] const Connection* find(ConnectionId id) const;

  /// Snapshot of the accepted set (for analysis and reporting).
  [[nodiscard]] std::vector<Connection> snapshot() const;

  [[nodiscard]] std::int64_t requests_seen() const { return requests_; }
  [[nodiscard]] std::int64_t rejections() const { return rejections_; }

 private:
  double u_max_;
  double capacity_factor_ = 1.0;
  AdmissionPolicy policy_ = AdmissionPolicy::kUtilisation;
  double utilisation_ = 0.0;
  ConnectionId next_id_ = 1;
  std::unordered_map<ConnectionId, Connection> ma_;
  std::int64_t requests_ = 0;
  std::int64_t rejections_ = 0;
  std::int64_t renegotiations_ = 0;
};

}  // namespace ccredf::core
