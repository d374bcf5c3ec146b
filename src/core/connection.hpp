// Logical real-time connections (paper §5-6).
//
// A connection is a periodic message stream: every P_i slots the source
// releases a message of e_i slots whose relative deadline equals the
// period (the paper's assumption in §5).  Connections are admitted and
// removed at run time through the admission test of Eq. 5-6.
#pragma once

#include <cstdint>

#include "common/error.hpp"
#include "common/nodeset.hpp"
#include "common/types.hpp"

namespace ccredf::core {

struct ConnectionParams {
  NodeId source = kInvalidNode;
  NodeSet dests;
  /// Message size e_i in slots (>= 1).
  std::int64_t size_slots = 1;
  /// Period P_i in slots (>= size).
  std::int64_t period_slots = 1;
  /// Relative deadline in slots; the paper fixes D_i = P_i, which remains
  /// the default, but the framework accepts constrained deadlines too.
  std::int64_t deadline_slots = 0;  // 0 => equal to period
  /// Release offset of the first message, in slots.
  std::int64_t offset_slots = 0;

  [[nodiscard]] std::int64_t effective_deadline_slots() const {
    return deadline_slots == 0 ? period_slots : deadline_slots;
  }

  /// Utilisation e_i / P_i (Eq. 5 summand).
  [[nodiscard]] double utilisation() const {
    return static_cast<double>(size_slots) /
           static_cast<double>(period_slots);
  }

  void validate() const {
    CCREDF_EXPECT(size_slots >= 1, "connection: size must be >= 1 slot");
    CCREDF_EXPECT(period_slots >= size_slots,
                  "connection: period must be >= size");
    CCREDF_EXPECT(deadline_slots == 0 || deadline_slots >= size_slots,
                  "connection: deadline shorter than message size");
    CCREDF_EXPECT(offset_slots >= 0, "connection: negative offset");
    CCREDF_EXPECT(!dests.empty(), "connection: no destinations");
  }
};

}  // namespace ccredf::core
