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

bool AdmissionController::fits(const ConnectionParams& params) const {
  // Eq. 5 against Eq. 6's bound (derated in degraded mode).  A small
  // epsilon forgives accumulated floating-point error when many
  // connections sum exactly to the bound.
  constexpr double kEps = 1e-12;
  return utilisation_ + weight(params) <= effective_u_max() + kEps;
}

AdmissionController::Decision AdmissionController::admit(
    const ConnectionParams& params, bool bounded) {
  params.validate();
  ++requests_;
  if (bounded && !fits(params)) {
    ++rejections_;
    return Decision{};
  }
  utilisation_ += weight(params);
  return Decision{true, next_id_++};
}

void AdmissionController::release(const ConnectionParams& params) {
  utilisation_ -= weight(params);
  if (utilisation_ < 0.0) utilisation_ = 0.0;  // guard rounding drift
}

}  // namespace ccredf::core
