#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <limits>
#include <ostream>
#include <utility>

#include "obs/span_trace.h"  // JsonQuote
#include "util/csv.h"
#include "util/stats.h"

namespace flare {

namespace {

// A positive double's bit pattern grows with its value, and its top bits
// are the exponent (the octave) followed by the mantissa's leading bits
// (the linear sub-bucket). Shifting (bits - 1) right by kKeyShift keys
// the upper-inclusive sub-bucket (EdgeOf(key), EdgeOf(key + 1)], so a
// value that is exactly a power of two closes the octave below it and
// the `le` edges of CumulativeEdges() count it exactly.
static_assert(std::has_single_bit(
    static_cast<unsigned>(Histogram::kSubBuckets)));
constexpr int kKeyShift =
    52 - std::countr_zero(static_cast<unsigned>(Histogram::kSubBuckets));
constexpr std::uint64_t kOctaveMask = Histogram::kSubBuckets - 1;

std::uint64_t KeyOf(double value) {
  return (std::bit_cast<std::uint64_t>(value) - 1) >> kKeyShift;
}

double EdgeOf(std::uint64_t key) {
  return std::bit_cast<double>(key << kKeyShift);
}

}  // namespace

void Histogram::Observe(double value) {
  ++count_;
  sum_ += value;
  if (!(value > 0.0)) {
    ++zero_;
    return;
  }
  const std::uint64_t key = KeyOf(value);
  // One unsigned compare: a key below first_key_ wraps around.
  if (key - first_key_ >= counts_.size()) Cover(key, key);
  ++counts_[key - first_key_];
}

void Histogram::Cover(std::uint64_t lo_key, std::uint64_t hi_key) {
  lo_key &= ~kOctaveMask;
  hi_key |= kOctaveMask;
  if (counts_.empty()) {
    counts_.assign(hi_key - lo_key + 1, 0);
    first_key_ = lo_key;
    return;
  }
  lo_key = std::min(lo_key, first_key_);
  hi_key = std::max(hi_key, first_key_ + counts_.size() - 1);
  if (lo_key == first_key_ && hi_key - lo_key + 1 == counts_.size()) return;
  std::vector<std::uint64_t> grown(hi_key - lo_key + 1, 0);
  std::copy(counts_.begin(), counts_.end(),
            grown.begin() + static_cast<std::ptrdiff_t>(first_key_ - lo_key));
  counts_ = std::move(grown);
  first_key_ = lo_key;
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::Quantile(double q) const {
  // NaN rather than a fake 0: downstream JSON export turns it into null
  // so tools never mistake "no samples" for "all samples were zero".
  if (count_ == 0) return std::numeric_limits<double>::quiet_NaN();
  std::uint64_t rank = NearestRank(count_, q);
  if (rank <= zero_) return 0.0;
  rank -= zero_;
  std::uint64_t key = first_key_;
  for (const std::uint64_t n : counts_) {
    if (rank <= n) break;
    rank -= n;
    ++key;
  }
  const double lo = EdgeOf(key);
  return lo + 0.5 * (EdgeOf(key + 1) - lo);
}

void Histogram::MergeFrom(const Histogram& other) {
  if (!other.counts_.empty()) {
    Cover(other.first_key_, other.first_key_ + other.counts_.size() - 1);
    for (std::size_t i = 0; i < other.counts_.size(); ++i) {
      counts_[other.first_key_ - first_key_ + i] += other.counts_[i];
    }
  }
  zero_ += other.zero_;
  count_ += other.count_;
  sum_ += other.sum_;
}

std::vector<Histogram::Edge> Histogram::CumulativeEdges() const {
  std::vector<Edge> edges;
  std::uint64_t running = zero_;
  edges.push_back({0.0, running});
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    running += counts_[i];
    const std::uint64_t next = first_key_ + i + 1;
    if ((next & kOctaveMask) == 0) edges.push_back({EdgeOf(next), running});
  }
  edges.push_back({std::numeric_limits<double>::infinity(), count_});
  return edges;
}

std::string FormatBucketEdge(double le) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), le);
  return std::string(buf, result.ptr);
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  return counters_[name];
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  return gauges_[name];
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  return histograms_[name];
}

void MetricsRegistry::MergeFrom(const MetricsRegistry& other,
                                const std::string& prefix) {
  for (const auto& [name, counter] : other.counters_) {
    GetCounter(prefix + name).Add(counter.value());
  }
  for (const auto& [name, gauge] : other.gauges_) {
    GetGauge(prefix + name).Set(gauge.value());
  }
  for (const auto& [name, histogram] : other.histograms_) {
    GetHistogram(prefix + name).MergeFrom(histogram);
  }
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.AbsorbFrom(*this);
  return snap;
}

void MetricsSnapshot::AbsorbFrom(const MetricsRegistry& registry,
                                 const std::string& prefix) {
  for (const auto& [name, counter] : registry.counters()) {
    counters[prefix + name] += counter.value();
  }
  for (const auto& [name, gauge] : registry.gauges()) {
    gauges[prefix + name] = gauge.value();
  }
  for (const auto& [name, histogram] : registry.histograms()) {
    histograms[prefix + name].MergeFrom(histogram);
  }
}

void MetricsSnapshot::WriteJson(std::ostream& out) const {
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << JsonQuote(name);
    out << ": " << value;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << JsonQuote(name);
    out << ": " << JsonNumber(value);
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    out << JsonQuote(name);
    // Empty histograms export null aggregates (Quantile is NaN, and a
    // bare `nan` token would make the whole document unparseable).
    const bool empty = histogram.count() == 0;
    out << ": {\"count\": " << histogram.count()
        << ", \"sum\": " << JsonNumber(histogram.sum()) << ", \"mean\": "
        << (empty ? "null" : JsonNumber(histogram.Mean()))
        << ", \"p50\": " << JsonNumber(histogram.Quantile(0.50))
        << ", \"p95\": " << JsonNumber(histogram.Quantile(0.95))
        << ", \"p99\": " << JsonNumber(histogram.Quantile(0.99))
        << ", \"buckets\": [";
    bool first_edge = true;
    for (const Histogram::Edge& edge : histogram.CumulativeEdges()) {
      out << (first_edge ? "" : ", ") << "{\"le\": "
          << (std::isinf(edge.le) ? "\"inf\"" : FormatBucketEdge(edge.le))
          << ", \"count\": " << edge.count << '}';
      first_edge = false;
    }
    out << "]}";
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  Snapshot().WriteJson(out);
}


CounterHandle MakeCounterHandle(MetricsRegistry* registry,
                                const std::string& name) {
  return registry == nullptr ? CounterHandle{}
                             : CounterHandle(&registry->GetCounter(name));
}

GaugeHandle MakeGaugeHandle(MetricsRegistry* registry,
                            const std::string& name) {
  return registry == nullptr ? GaugeHandle{}
                             : GaugeHandle(&registry->GetGauge(name));
}

HistogramHandle MakeHistogramHandle(MetricsRegistry* registry,
                                    const std::string& name) {
  return registry == nullptr ? HistogramHandle{}
                             : HistogramHandle(&registry->GetHistogram(name));
}

}  // namespace flare
