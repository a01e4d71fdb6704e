#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace flare {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void Cdf::Add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void Cdf::AddAll(const std::vector<double>& xs) {
  samples_.insert(samples_.end(), xs.begin(), xs.end());
  sorted_ = false;
}

void Cdf::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double Cdf::Quantile(double q) const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

std::uint64_t NearestRank(std::uint64_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  if (!(rank > 1.0)) return 1;  // also q <= 0 and NaN
  if (rank >= static_cast<double>(n)) return n;
  return static_cast<std::uint64_t>(rank);
}

double NearestRankQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), q) - 1];
}

double Cdf::Mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples_) sum += x;
  return sum / static_cast<double>(samples_.size());
}

std::vector<std::pair<double, double>> Cdf::Curve(std::size_t points) const {
  std::vector<std::pair<double, double>> curve;
  if (samples_.empty() || points < 2) return curve;
  curve.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q =
        static_cast<double>(i) / static_cast<double>(points - 1);
    curve.emplace_back(Quantile(q), q);
  }
  return curve;
}

const std::vector<double>& Cdf::sorted() const {
  EnsureSorted();
  return samples_;
}

double JainIndex(const std::vector<double>& xs) {
  if (xs.empty()) return 1.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq <= 0.0) return 1.0;
  return (sum * sum) / (static_cast<double>(xs.size()) * sum_sq);
}

double HarmonicMean(const std::vector<double>& xs) {
  double denom = 0.0;
  std::size_t n = 0;
  for (double x : xs) {
    if (x > 0.0) {
      denom += 1.0 / x;
      ++n;
    }
  }
  if (n == 0 || denom <= 0.0) return 0.0;
  return static_cast<double>(n) / denom;
}

}  // namespace flare
