// Online statistics used by the engine, the sweep and the benches.
//
// OnlineStats:    numerically stable running mean/variance/min/max
//                 (Welford).
// ExactStats:     integer moments, bitwise-exact under k-fold adds.
// ExactQuantiles: exact nearest-rank quantiles over few distinct values.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "sim/time.hpp"

namespace ccredf::sim {

class OnlineStats {
 public:
  /// Inline: the engine adds every delivery's latency twice.
  void add(double x) {
    ++n_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  void add(Duration d) { add(static_cast<double>(d.ps())); }

  [[nodiscard]] std::int64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return n_ > 0 ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ > 0 ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Interprets the accumulated values as picosecond durations.
  [[nodiscard]] Duration mean_duration() const {
    return Duration::picoseconds(static_cast<std::int64_t>(mean()));
  }
  [[nodiscard]] Duration max_duration() const {
    return Duration::picoseconds(static_cast<std::int64_t>(max()));
  }
  [[nodiscard]] Duration min_duration() const {
    return Duration::picoseconds(static_cast<std::int64_t>(min()));
  }

  /// Merges another accumulator into this one (parallel reduction).
  void merge(const OnlineStats& other);

 private:
  std::int64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact integer-moment accumulator for integer-valued samples (slot
/// gaps in ps, hand-over hop counts, ...).
///
/// Unlike OnlineStats (Welford, floating point), every moment is kept in
/// integer arithmetic: count and sum in int64, the sum of squares in a
/// 128-bit integer.  Integer addition is associative, so
///     add_n(x, k)  ==  k consecutive add(x)
/// holds BITWISE for every derived statistic -- the property the slot
/// engine's fast-forward path relies on to advance k identical idle
/// slots in O(1) while staying byte-identical to slot-by-slot execution
/// (tests/sim/exact_stats_test.cpp pins it).
///
/// Capacity: |sum| stays exact while count * |x| < 2^63 -- a 10^9-slot
/// soak of ~10^6 ps gaps uses 10^15, three orders of magnitude of
/// headroom; sumsq has 2^127 to work with.
class ExactStats {
 public:
  // GCC/Clang extension; silenced for -Wpedantic builds.  128 bits keep
  // the sum of squares exact for any realistic run length.
  __extension__ using int128 = __int128;

  void add(std::int64_t x) { add_n(x, 1); }
  void add(Duration d) { add_n(d.ps(), 1); }

  /// Adds `k` samples of the identical value `x` in O(1).
  void add_n(std::int64_t x, std::int64_t k) {
    if (k <= 0) return;
    n_ += k;
    sum_ += x * k;
    sumsq_ += static_cast<int128>(x) * x * k;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  [[nodiscard]] std::int64_t count() const { return n_; }
  /// Exact integer sum; the double view keeps the legacy OnlineStats
  /// read API (exact while |sum| < 2^53, far beyond every current use).
  [[nodiscard]] std::int64_t sum_exact() const { return sum_; }
  [[nodiscard]] double sum() const { return static_cast<double>(sum_); }
  [[nodiscard]] double mean() const {
    return n_ > 0 ? static_cast<double>(sum_) / static_cast<double>(n_)
                  : 0.0;
  }
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const {
    return n_ > 0 ? static_cast<double>(min_) : 0.0;
  }
  [[nodiscard]] double max() const {
    return n_ > 0 ? static_cast<double>(max_) : 0.0;
  }

  /// Interprets the accumulated values as picosecond durations.
  [[nodiscard]] Duration mean_duration() const {
    return Duration::picoseconds(static_cast<std::int64_t>(mean()));
  }
  [[nodiscard]] Duration max_duration() const {
    return n_ > 0 ? Duration::picoseconds(max_) : Duration::zero();
  }
  [[nodiscard]] Duration min_duration() const {
    return n_ > 0 ? Duration::picoseconds(min_) : Duration::zero();
  }

  /// Merges another accumulator (parallel reduction); exact, so the
  /// merge order cannot change any derived statistic.
  void merge(const ExactStats& other);

 private:
  std::int64_t n_ = 0;
  std::int64_t sum_ = 0;
  int128 sumsq_ = 0;
  std::int64_t min_ = std::numeric_limits<std::int64_t>::max();
  std::int64_t max_ = std::numeric_limits<std::int64_t>::min();
};

/// Exact quantiles over integer-valued samples with FEW distinct values
/// (recovery gaps: each gap is a deterministic function of the network
/// configuration, so even a soak of millions of token losses produces a
/// handful of distinct values).  Keeps a sorted (value, count) vector --
/// integer arithmetic only, so every quantile is an exact sample value
/// and a pure function of the sample multiset: no accumulation-order or
/// float-rounding sensitivity, which the sweep's byte-determinism gates
/// rely on when p50/p99 are exported as per-point metrics.
class ExactQuantiles {
 public:
  void add(std::int64_t v, std::int64_t count = 1);
  void add(Duration d) { add(d.ps()); }

  [[nodiscard]] std::int64_t count() const { return total_; }
  [[nodiscard]] std::size_t distinct() const { return entries_.size(); }
  /// Nearest-rank quantile (the smallest sample value whose cumulative
  /// count reaches ceil(q * count)); q in [0, 1]; 0 when empty.
  [[nodiscard]] std::int64_t quantile(double q) const;

  /// Merges another accumulator (parallel reduction); exact, so the
  /// merge order cannot change any quantile.
  void merge(const ExactQuantiles& other);

 private:
  std::vector<std::pair<std::int64_t, std::int64_t>> entries_;  // sorted
  std::int64_t total_ = 0;
};

}  // namespace ccredf::sim
