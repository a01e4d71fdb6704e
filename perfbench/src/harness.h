// Shared plumbing of the FLARE performance benchmark: exact quantiles over
// raw samples, host clocks, process resource readings, seed derivation and
// the result record every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Exact quantile of raw samples: linear interpolation between the two
/// closest order statistics (the "type 7" estimator). `sorted` must be
/// ascending; `q` is clamped to [0, 1]. Returns 0 for an empty input.
double SortedQuantile(const std::vector<double>& sorted, double q);
/// Sorts a copy of `samples`, then SortedQuantile.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}
inline double Sum(const std::vector<double>& samples) {
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return sum;
}

/// A latency distribution as the benchmark reports it: the median, p99,
/// and the highest of p90/p99/p99.9/p99.99 that still has at least ten
/// samples beyond it (tail_q = 0 when even p90 has fewer), with the
/// sample count.
struct Distribution {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_q = 0.0;
  double tail = 0.0;
};
Distribution Summarize(std::vector<double> samples);
/// "p50=… p99=… [p99.9=…] unit (n=…)" for the human-readable lines; the
/// tail is shown when it lies beyond p99.
std::string Describe(const Distribution& d, const std::string& unit);

/// Peak resident set size of this process (VmHWM), in MiB.
double PeakRssMb();
/// CPU time consumed by every thread of this process so far, in seconds.
double ProcessCpuSeconds();

/// Independent 64-bit value for (seed, index) (splitmix64 finaliser), so
/// every generated input is a pure function of the benchmark seed.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t index);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for files a run writes (inside the build tree).
  std::string scratch_dir = ".";
};

/// One run's checked-output tally and metrics. Operations are counted as
/// they are checked; a failed check prints why on stderr.
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// A human-readable line printed before the metrics.
  void Note(const std::string& line) { notes_.push_back(line); }
  /// One operation whose outputs were checked.
  void Record(bool ok, const std::string& what);
  /// `attempted` operations of which `failed` failed their checks.
  void RecordMany(std::uint64_t attempted, std::uint64_t failed,
                  const std::string& what);

  bool correct() const { return attempted_ > 0 && failed_ == 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
