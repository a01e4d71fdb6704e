// Statistics helpers used throughout the evaluation harness:
// running mean/variance, empirical CDFs, the nearest-rank quantile rule,
// Jain's fairness index, and the harmonic mean used by FESTIVE's
// throughput estimator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flare {

/// Welford running mean / variance accumulator.
class RunningStats {
 public:
  void Add(double x);
  std::size_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double sum_ = 0.0;
};

/// Empirical CDF over a collected sample set.
class Cdf {
 public:
  void Add(double x);
  void AddAll(const std::vector<double>& xs);
  std::size_t count() const { return samples_.size(); }

  /// Value at quantile q in [0,1] (linear interpolation between order
  /// statistics). Returns 0 for an empty CDF.
  double Quantile(double q) const;

  double Mean() const;

  /// Evaluation points for printing a CDF curve: `points` evenly spaced
  /// quantiles from 0 to 1 as (value, cumulative probability) pairs.
  std::vector<std::pair<double, double>> Curve(std::size_t points) const;

  const std::vector<double>& sorted() const;

 private:
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
  void EnsureSorted() const;
};

/// Nearest-rank quantile rule: the 1-based rank ceil(q * n), clamped to
/// [1, n]. `n` must be positive. The metrics Histogram ranks its buckets
/// by this rule too, so its Quantile() estimates the same sample.
std::uint64_t NearestRank(std::uint64_t n, double q);

/// sorted[NearestRank(n, q) - 1] over an ascending sample; 0 when empty.
double NearestRankQuantile(const std::vector<double>& sorted, double q);

/// Jain's fairness index: (sum x)^2 / (n * sum x^2). 1.0 for equal shares.
double JainIndex(const std::vector<double>& xs);

/// Harmonic mean; ignores non-positive entries (returns 0 if none valid).
double HarmonicMean(const std::vector<double>& xs);

}  // namespace flare
