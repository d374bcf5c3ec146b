#include "core/admission.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace ccredf::core {

void AdmissionController::set_capacity_factor(double factor) {
  CCREDF_EXPECT(factor >= 0.0 && factor <= 1.0,
                "AdmissionController: capacity factor out of [0,1]");
  if (factor != capacity_factor_) ++renegotiations_;
  capacity_factor_ = factor;
}

double AdmissionController::weight(const ConnectionParams& params) const {
  switch (policy_) {
    case AdmissionPolicy::kDensity: {
      const auto d = std::min(params.effective_deadline_slots(),
                              params.period_slots);
      return static_cast<double>(params.size_slots) /
             static_cast<double>(d);
    }
    case AdmissionPolicy::kUtilisation:
      break;
  }
  return params.utilisation();
}

AdmissionController::Decision AdmissionController::request(
    const ConnectionParams& params, sim::TimePoint now) {
  params.validate();
  ++requests_;
  Decision d;
  const double u_new = weight(params);
  // Eq. 5 against Eq. 6's bound (derated in degraded mode).  A small
  // epsilon forgives accumulated floating-point error when many
  // connections sum exactly to the bound.
  constexpr double kEps = 1e-12;
  if (utilisation_ + u_new <= effective_u_max() + kEps) {
    Connection c;
    c.id = next_id_++;
    c.params = params;
    c.admitted = now;
    utilisation_ += u_new;
    d.admitted = true;
    d.id = c.id;
    ma_.emplace(c.id, std::move(c));
  } else {
    ++rejections_;
  }
  d.utilisation_after = utilisation_;
  return d;
}

AdmissionController::Decision AdmissionController::admit_unchecked(
    const ConnectionParams& params, sim::TimePoint now) {
  params.validate();
  ++requests_;
  Decision d;
  Connection c;
  c.id = next_id_++;
  c.params = params;
  c.admitted = now;
  utilisation_ += weight(params);
  d.admitted = true;
  d.id = c.id;
  ma_.emplace(c.id, std::move(c));
  d.utilisation_after = utilisation_;
  return d;
}

bool AdmissionController::release(ConnectionId id) {
  auto it = ma_.find(id);
  if (it == ma_.end()) return false;
  utilisation_ -= weight(it->second.params);
  if (utilisation_ < 0.0) utilisation_ = 0.0;  // guard rounding drift
  ma_.erase(it);
  return true;
}

const Connection* AdmissionController::find(ConnectionId id) const {
  const auto it = ma_.find(id);
  return it == ma_.end() ? nullptr : &it->second;
}

std::vector<Connection> AdmissionController::snapshot() const {
  std::vector<Connection> v;
  v.reserve(ma_.size());
  for (const auto& [id, c] : ma_) v.push_back(c);
  return v;
}

}  // namespace ccredf::core
