// Traffic classes and the laxity -> priority mapping (paper §3, Table 1).
//
// The request's priority field is 5 bits wide (Fig. 4), giving levels
// 0..31 allocated as:
//     0        nothing to send
//     1        non-real-time
//     2..16    best effort
//     17..31   logical real-time connection
// Within a class, *numerically larger* means shorter laxity (more urgent);
// RT always beats BE which always beats NRT.  The paper assumes a
// logarithmic laxity mapping ("higher resolution of laxity, the closer to
// its deadline a packet gets") and leaves alternatives open; map_laxity
// provides it plus a linear mapping for the E8 ablation.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/error.hpp"
#include "sim/time.hpp"

namespace ccredf::core {

/// A value of the request priority field.
using Priority = std::uint8_t;

enum class TrafficClass : std::uint8_t {
  kNonRealTime = 0,
  kBestEffort = 1,
  kRealTime = 2,
};

/// Field-width-dependent layout of Table 1.
struct PriorityLayout {
  unsigned field_bits = 5;  // paper Fig. 4

  [[nodiscard]] Priority max_level() const {
    return static_cast<Priority>((1u << field_bits) - 1);
  }
  [[nodiscard]] Priority nothing() const { return 0; }
  [[nodiscard]] Priority non_real_time() const { return 1; }
  [[nodiscard]] Priority best_effort_lo() const { return 2; }
  /// Upper bound of the BE band; Table 1 gives 16 for the 5-bit field and
  /// we keep the band split proportional for other widths.
  [[nodiscard]] Priority best_effort_hi() const {
    return static_cast<Priority>((max_level() + 1) / 2);
  }
  [[nodiscard]] Priority real_time_lo() const {
    return static_cast<Priority>(best_effort_hi() + 1);
  }
  [[nodiscard]] Priority real_time_hi() const { return max_level(); }

  [[nodiscard]] Priority class_lo(TrafficClass c) const {
    switch (c) {
      case TrafficClass::kNonRealTime:
        return non_real_time();
      case TrafficClass::kBestEffort:
        return best_effort_lo();
      case TrafficClass::kRealTime:
        return real_time_lo();
    }
    return nothing();
  }
  [[nodiscard]] Priority class_hi(TrafficClass c) const {
    switch (c) {
      case TrafficClass::kNonRealTime:
        return non_real_time();
      case TrafficClass::kBestEffort:
        return best_effort_hi();
      case TrafficClass::kRealTime:
        return real_time_hi();
    }
    return nothing();
  }

  void validate() const {
    CCREDF_EXPECT(field_bits >= 3 && field_bits <= 8,
                  "PriorityLayout: field width must be in [3, 8] bits");
  }
};

/// Maps a message's laxity (time to deadline, in whole slots) to a level in
/// the class band.  Laxity may be negative for an already-late message; it
/// is clamped to zero (maximally urgent).  `linear_quantum_slots` 0 is the
/// paper's logarithmic mapping: one level per doubling of laxity, so
/// resolution is finest near the deadline.  A value k > 0 is the linear
/// E8 ablation with k slots per level.
[[nodiscard]] inline Priority map_laxity(const PriorityLayout& layout,
                                         TrafficClass cls,
                                         std::int64_t laxity_slots,
                                         std::int64_t linear_quantum_slots) {
  const std::int64_t clamped = std::max<std::int64_t>(laxity_slots, 0);
  // Logarithmic: floor(log2(1 + laxity)), so laxity 0 => 0 steps, 1..2 =>
  // 1, 3..6 => 2, 7..14 => 3, ...; bit_width(v) - 1 == floor(log2(v)).
  const std::int64_t down =
      linear_quantum_slots > 0
          ? clamped / linear_quantum_slots
          : static_cast<std::int64_t>(std::bit_width(
                static_cast<std::uint64_t>(1 + clamped))) -
                1;
  const Priority lo = layout.class_lo(cls);
  const Priority hi = layout.class_hi(cls);
  return static_cast<Priority>(hi - std::min<std::int64_t>(down, hi - lo));
}

}  // namespace ccredf::core
