#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

namespace ccredf::sim {

double OnlineStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double ExactStats::variance() const {
  if (n_ <= 1) return 0.0;
  // n*sumsq - sum^2 is exact in 128-bit arithmetic; one final division.
  const int128 num =
      static_cast<int128>(n_) * sumsq_ -
      static_cast<int128>(sum_) * static_cast<int128>(sum_);
  return static_cast<double>(num) /
         (static_cast<double>(n_) * static_cast<double>(n_ - 1));
}

double ExactStats::stddev() const { return std::sqrt(variance()); }

void ExactStats::merge(const ExactStats& other) {
  if (other.n_ == 0) return;
  n_ += other.n_;
  sum_ += other.sum_;
  sumsq_ += other.sumsq_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void ExactQuantiles::add(std::int64_t v, std::int64_t count) {
  if (count <= 0) return;
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), v,
      [](const std::pair<std::int64_t, std::int64_t>& e, std::int64_t x) {
        return e.first < x;
      });
  if (it != entries_.end() && it->first == v) {
    it->second += count;
  } else {
    entries_.insert(it, {v, count});
  }
  total_ += count;
}

std::int64_t ExactQuantiles::quantile(double q) const {
  CCREDF_EXPECT(q >= 0.0 && q <= 1.0, "ExactQuantiles: q out of [0, 1]");
  if (total_ == 0) return 0;
  const double target = q * static_cast<double>(total_);
  auto rank = static_cast<std::int64_t>(target);
  if (static_cast<double>(rank) < target) ++rank;  // ceil
  if (rank < 1) rank = 1;
  std::int64_t cum = 0;
  for (const auto& [v, c] : entries_) {
    cum += c;
    if (cum >= rank) return v;
  }
  return entries_.back().first;
}

void ExactQuantiles::merge(const ExactQuantiles& other) {
  for (const auto& [v, c] : other.entries_) add(v, c);
}

}  // namespace ccredf::sim
