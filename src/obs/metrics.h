// Cell-wide metrics registry.
//
// Every layer of the system (simulator core, eNodeB MAC, OneAPI control
// plane, HAS players) exposes counters, gauges and log-linear histograms
// through one registry so a run can be summarized — and compared across
// runs — from a single structured export (JSON or OpenMetrics).
//
// Cost model: instrumented components hold *handles* by value, resolved
// once when a registry is attached. A default-constructed handle carries a
// null pointer and every operation compiles to a single well-predicted
// branch, so an uninstrumented run pays effectively nothing (verified by
// bench_optimizer's BM_ObsOverhead). The instruments themselves are plain
// non-atomic fields — the simulator is single-threaded — but the API keeps
// each instrument independent (no shared mutable export state on the hot
// path), so swapping the fields for atomics is a local change if a
// multi-threaded driver ever needs it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace flare {

/// Monotonically increasing event count (RBs granted, stalls, ...).
class Counter {
 public:
  void Add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written instantaneous value (queue depth, buffer level, ...).
class Gauge {
 public:
  void Set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Log-linear histogram with one layout for every instrument, so no call
/// site picks bucket bounds. Positive values fall into power-of-two
/// octaves (2^e, 2^(e+1)], each split into kSubBuckets equal-width
/// sub-buckets; values <= 0 (and NaN) share one zero bucket. Storage is a
/// contiguous run of sub-bucket counts covering only the octaves between
/// the smallest and largest value seen, grown on demand. count() and
/// sum() are exact; merging adds counts bucket for bucket.
class Histogram {
 public:
  static constexpr int kSubBuckets = 16;
  /// Relative error bound of Quantile(): half a sub-bucket over the
  /// octave's lower edge, 1 / (2 * kSubBuckets) = 3.125%.
  static constexpr double kRelativeError = 0.5 / kSubBuckets;

  void Observe(double value);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double Mean() const;
  /// Nearest-rank quantile (NearestRank in util/stats.h): the midpoint of
  /// the sub-bucket holding the rank-ceil(q * count()) sample, so
  /// |Quantile(q) - exact| <= kRelativeError * exact for positive exact
  /// values, and exactly 0 when that sample is in the zero bucket.
  /// Returns NaN when empty (JSON export renders it as null). `q` is
  /// clamped to [0, 1].
  double Quantile(double q) const;
  /// Fold another histogram's observations into this one.
  void MergeFrom(const Histogram& other);

  /// Cumulative export projection shared by the JSON and OpenMetrics
  /// renderers: (le, count of observations <= le) at le = 0, at the upper
  /// edge of every octave between the smallest and largest value seen,
  /// then at +inf (== count()). Every count is exact.
  struct Edge {
    double le = 0.0;
    std::uint64_t count = 0;
  };
  std::vector<Edge> CumulativeEdges() const;

 private:
  std::uint64_t zero_ = 0;       // observations <= 0 or NaN
  std::uint64_t first_key_ = 0;  // bucket key of counts_[0]
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;

  /// Widen counts_ to whole octaves covering [lo_key, hi_key].
  void Cover(std::uint64_t lo_key, std::uint64_t hi_key);
};

/// Shortest text that parses back to exactly `le`, so a rendered octave
/// edge keeps the exactness of its count. Shared by the JSON and
/// OpenMetrics renderers.
std::string FormatBucketEdge(double le);

class MetricsRegistry;

/// Point-in-time copy of a whole registry (or several, via AbsorbFrom):
/// the read-path synchronization story for concurrent export. Live
/// instruments are only ever touched by the thread running their cell; a
/// snapshot is taken by that thread between BAI slices (or at any other
/// quiescent point) and then handed to readers — the telemetry
/// server serves /metrics from its latest snapshot under its own mutex,
/// and the end-of-run JSON export renders from a snapshot too, so both
/// paths share one renderer and one consistency model.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram> histograms;

  /// Fold a registry in under `prefix` + name, MergeFrom semantics
  /// (counters add, gauges overwrite, histograms fold).
  void AbsorbFrom(const MetricsRegistry& registry,
                  const std::string& prefix = {});
  /// Same JSON bytes MetricsRegistry::WriteJson has always produced.
  void WriteJson(std::ostream& out) const;
};

/// Name-keyed instrument store. Instruments live as long as the registry;
/// the node-based maps keep their addresses stable, so handles resolved at
/// attach time never dangle while the registry exists.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create by name. Re-requesting a name returns the same
  /// instrument, so independent components may share one (e.g. two cells
  /// accumulating into "cell.rbs_used").
  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  const std::map<std::string, Counter>& counters() const {
    return counters_;
  }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Copy every instrument of `other` into this registry under
  /// `prefix` + name (counters add, gauges overwrite, histograms fold).
  /// The sharded runtime gives each event domain a private registry and
  /// merges them post-run under "cell<N>." prefixes, so the combined
  /// export is identical whether the domains ran serially or in parallel.
  void MergeFrom(const MetricsRegistry& other, const std::string& prefix);

  /// Detach a point-in-time copy of every instrument. Call from the
  /// thread that owns the registry (or once it is quiescent); the returned
  /// value is independent data that may cross threads freely.
  MetricsSnapshot Snapshot() const;

  /// JSON object {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  /// Renders via Snapshot() — one renderer for live and snapshotted data.
  void WriteJson(std::ostream& out) const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

// --- Zero-cost-when-disabled handles ---------------------------------------
// Components store these by value and call them unconditionally; the null
// default makes every call a no-op until a registry is attached.

class CounterHandle {
 public:
  CounterHandle() = default;
  explicit CounterHandle(Counter* counter) : counter_(counter) {}
  void Add(std::uint64_t delta = 1) {
    if (counter_ != nullptr) counter_->Add(delta);
  }
  bool enabled() const { return counter_ != nullptr; }

 private:
  Counter* counter_ = nullptr;
};

class GaugeHandle {
 public:
  GaugeHandle() = default;
  explicit GaugeHandle(Gauge* gauge) : gauge_(gauge) {}
  void Set(double value) {
    if (gauge_ != nullptr) gauge_->Set(value);
  }
  bool enabled() const { return gauge_ != nullptr; }

 private:
  Gauge* gauge_ = nullptr;
};

class HistogramHandle {
 public:
  HistogramHandle() = default;
  explicit HistogramHandle(Histogram* histogram) : histogram_(histogram) {}
  void Observe(double value) {
    if (histogram_ != nullptr) histogram_->Observe(value);
  }
  bool enabled() const { return histogram_ != nullptr; }

 private:
  Histogram* histogram_ = nullptr;
};

/// Resolve a handle against an optional registry: null registry (the
/// disabled case) yields a null, no-op handle.
CounterHandle MakeCounterHandle(MetricsRegistry* registry,
                                const std::string& name);
GaugeHandle MakeGaugeHandle(MetricsRegistry* registry,
                            const std::string& name);
HistogramHandle MakeHistogramHandle(MetricsRegistry* registry,
                                    const std::string& name);

}  // namespace flare
