// Online admission control for logical real-time connections (paper §6).
//
// A designated node solely handles addition and removal of connections.
// The test is the EDF utilisation bound of Eq. 5: the new connection is
// admitted iff U(Ma) + e/P <= U_max, with U_max from Eq. 6.  Connections
// are "well behaved": sources honour the agreed parameters (enforced by
// the traffic generators, checked by tests).
//
// The controller is a ledger: Eq. 5 needs only the sum over the accepted
// set Ma, so it keeps that sum and nothing per id.  The caller that owns
// the admitted ids (net::Network's connection table) hands the weighed
// parameters back on release.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "core/connection.hpp"

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
  };

  /// Runs the admission test; on success the connection's weight joins
  /// the sum over Ma and the connection receives a fresh id.
  Decision request(const ConnectionParams& params) {
    return admit(params, /*bounded=*/true);
  }

  /// The Eq. 5 test alone: true when `params` would join the accepted set
  /// within effective_u_max().  Counts nothing.
  [[nodiscard]] bool fits(const ConnectionParams& params) const;

  /// Admits WITHOUT the Eq. 5 bound test: the caller holds a stronger
  /// feasibility proof (the hypercycle planner's exact constructive
  /// schedule, core/hypercycle.hpp).  The weight still counts toward
  /// utilisation(), which may then legitimately exceed effective_u_max().
  Decision admit_unchecked(const ConnectionParams& params) {
    return admit(params, /*bounded=*/false);
  }

  /// Removes an admitted connection's weight from the sum.  `params`
  /// must be the parameters its admission weighed.
  void release(const ConnectionParams& params);

  /// Takes back an admission that the caller's stronger test then
  /// refused (the planner found no schedule): the weight leaves the sum
  /// and the request counts as a rejection.
  void revoke(const ConnectionParams& params) {
    release(params);
    ++rejections_;
  }

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
  /// Summed weight of the accepted set Ma.
  [[nodiscard]] double utilisation() const { return utilisation_; }

  [[nodiscard]] std::int64_t requests_seen() const { return requests_; }
  [[nodiscard]] std::int64_t rejections() const { return rejections_; }

 private:
  /// The one admit path: `bounded` runs the Eq. 5 test first.
  Decision admit(const ConnectionParams& params, bool bounded);

  double u_max_;
  double capacity_factor_ = 1.0;
  AdmissionPolicy policy_ = AdmissionPolicy::kUtilisation;
  double utilisation_ = 0.0;
  ConnectionId next_id_ = 1;
  std::int64_t requests_ = 0;
  std::int64_t rejections_ = 0;
  std::int64_t renegotiations_ = 0;
};

}  // namespace ccredf::core
