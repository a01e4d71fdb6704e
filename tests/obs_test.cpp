// Tests for the observability layer: metrics registry, handles, the
// structured BAI trace sink, the causal span tracer and the run-health
// watchdogs — plus end-to-end checks that a scenario run with observers
// attached produces per-BAI rows for every video flow and a well-formed
// span-trace JSON, without perturbing the experiment.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "core/rate_controller.h"
#include "obs/bai_trace.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/openmetrics.h"
#include "obs/qoe_analytics.h"
#include "obs/span_trace.h"
#include "obs/watchdog.h"
#include "scenario/multi_cell.h"
#include "scenario/scenario.h"
#include "util/csv.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/time.h"

namespace flare {
namespace {

// Minimal recursive-descent JSON syntax validator — enough to prove an
// emitted trace file is loadable, with no parser dependency.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}
  bool Parse() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return i_ == s_.size();
  }

 private:
  bool Peek(char c) const { return i_ < s_.size() && s_[i_] == c; }
  bool Expect(char c) {
    SkipWs();
    if (!Peek(c)) return false;
    ++i_;
    return true;
  }
  void SkipWs() {
    while (i_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool Value() {
    SkipWs();
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++i_;
    if (Expect('}')) return true;
    for (;;) {
      SkipWs();
      if (!String() || !Expect(':') || !Value()) return false;
      if (Expect(',')) continue;
      return Expect('}');
    }
  }
  bool Array() {
    ++i_;
    if (Expect(']')) return true;
    for (;;) {
      if (!Value()) return false;
      if (Expect(',')) continue;
      return Expect(']');
    }
  }
  bool String() {
    SkipWs();
    if (!Peek('"')) return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') ++i_;
      ++i_;
    }
    if (!Peek('"')) return false;
    ++i_;
    return true;
  }
  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++i_) {
      if (i_ >= s_.size() || s_[i_] != *p) return false;
    }
    return true;
  }
  bool Number() {
    const std::size_t start = i_;
    if (Peek('-')) ++i_;
    while (i_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
            s_[i_] == '.' || s_[i_] == 'e' || s_[i_] == 'E' ||
            s_[i_] == '+' || s_[i_] == '-')) {
      ++i_;
    }
    return i_ > start;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

TEST(MetricsRegistry, CountersGaugesHistogramsRoundTrip) {
  MetricsRegistry registry;
  registry.GetCounter("a").Add(3);
  registry.GetCounter("a").Add();
  registry.GetGauge("g").Set(2.5);
  Histogram& h = registry.GetHistogram("h");
  h.Observe(0.5);
  h.Observe(5.0);
  h.Observe(100.0);
  EXPECT_EQ(registry.GetCounter("a").value(), 4u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("g").value(), 2.5);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 105.5);
  // le = 0, then every octave edge from 0.5's octave (0.25, 0.5] up to
  // 100's (64, 128], then +inf. 0.5 is a power of two: it closes its
  // octave, so the le=0.5 row already counts it.
  std::vector<std::pair<double, std::uint64_t>> edges;
  for (const Histogram::Edge& edge : h.CumulativeEdges()) {
    edges.emplace_back(edge.le, edge.count);
  }
  const std::vector<std::pair<double, std::uint64_t>> expected = {
      {0.0, 0},   {0.5, 1},  {1.0, 1},  {2.0, 1},
      {4.0, 1},   {8.0, 2},  {16.0, 2}, {32.0, 2},
      {64.0, 2},  {128.0, 3}, {std::numeric_limits<double>::infinity(), 3}};
  EXPECT_EQ(edges, expected);
}

TEST(MetricsRegistry, SameNameSharesInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("shared").Add(1);
  registry.GetCounter("shared").Add(1);
  EXPECT_EQ(registry.GetCounter("shared").value(), 2u);
  EXPECT_EQ(&registry.GetHistogram("h"), &registry.GetHistogram("h"));
}

TEST(MetricsHandles, NullHandlesAreInertAndCheap) {
  CounterHandle counter;
  GaugeHandle gauge;
  HistogramHandle histogram;
  EXPECT_FALSE(counter.enabled());
  EXPECT_FALSE(gauge.enabled());
  EXPECT_FALSE(histogram.enabled());
  // No registry attached: these must be safe no-ops.
  counter.Add(7);
  gauge.Set(1.0);
  histogram.Observe(1.0);
  // Null-registry factory also yields inert handles.
  EXPECT_FALSE(MakeCounterHandle(nullptr, "x").enabled());
  EXPECT_FALSE(MakeGaugeHandle(nullptr, "x").enabled());
  EXPECT_FALSE(MakeHistogramHandle(nullptr, "x").enabled());
}

TEST(MetricsHandles, ResolvedHandlesWriteThrough) {
  MetricsRegistry registry;
  CounterHandle counter = MakeCounterHandle(&registry, "c");
  GaugeHandle gauge = MakeGaugeHandle(&registry, "g");
  HistogramHandle histogram = MakeHistogramHandle(&registry, "h");
  counter.Add(2);
  gauge.Set(9.0);
  histogram.Observe(0.5);
  EXPECT_EQ(registry.GetCounter("c").value(), 2u);
  EXPECT_DOUBLE_EQ(registry.GetGauge("g").value(), 9.0);
  EXPECT_EQ(registry.GetHistogram("h").count(), 1u);
}

TEST(MetricsRegistry, JsonContainsAllSections) {
  MetricsRegistry registry;
  registry.GetCounter("cell.ttis").Add(10);
  registry.GetGauge("oneapi.video_fraction").Set(0.5);
  registry.GetHistogram("oneapi.solve_ms").Observe(0.2);
  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"cell.ttis\": 10"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"le\""), std::string::npos);
}

TEST(BaiTraceSink, AggregatesTtisPerFlushPeriod) {
  BaiTraceSink sink(kSecond);
  // 2.5 s of TTIs at 1 ms: expect 2 full aggregate rows + 1 on Flush.
  for (SimTime t = 0; t < FromSeconds(2.5); t += kTti) {
    sink.RecordTti(t, 3, 47, 100.0);
  }
  sink.Flush(FromSeconds(2.5));
  ASSERT_EQ(sink.tti_rows().size(), 3u);
  const TtiAggregateRow& first = sink.tti_rows()[0];
  EXPECT_EQ(first.ttis, 1000u);
  EXPECT_EQ(first.rbs_priority, 3000u);
  EXPECT_EQ(first.rbs_shared, 47000u);
  EXPECT_DOUBLE_EQ(first.mean_gbr_shortfall_bytes, 100.0);
}

TEST(BaiTraceSink, JsonAndCsvExportsContainRows) {
  BaiTraceSink sink;
  BaiTraceRow row;
  row.t_s = 1.0;
  row.flow = 7;
  row.enforced_level = 2;
  row.rate_bps = 600e3;
  sink.RecordBai(row);
  PlayerSummary player;
  player.client = 0;
  player.flow = 7;
  player.stalls = 1;
  sink.RecordPlayer(player);

  std::ostringstream out;
  sink.WriteJson(out, nullptr);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"bai_trace\""), std::string::npos);
  EXPECT_NE(json.find("\"flow\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"players\""), std::string::npos);
  EXPECT_NE(json.find("\"stalls\": 1"), std::string::npos);

  const std::string path = "obs_test_trace.csv";
  ASSERT_TRUE(sink.ExportCsv(path));
  std::ifstream in(path);
  std::string header;
  std::string line;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(header.find("enforced_level"), std::string::npos);
  EXPECT_NE(line.find("7"), std::string::npos);
  in.close();
  std::remove(path.c_str());
}

// End-to-end: a FLARE scenario with observers attached produces per-BAI
// rows for every video flow, per-player summaries, and populated cell /
// server metrics — the acceptance criterion for the observability layer.
TEST(Observability, ScenarioRunEmitsRowsForEveryVideoFlow) {
  MetricsRegistry registry;
  BaiTraceSink trace;
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 30.0;
  config.n_video = 3;
  config.metrics = &registry;
  config.bai_trace = &trace;
  const ScenarioResult result = RunScenario(config);

  // One row per video flow per BAI (registration takes ~1 BAI).
  std::set<FlowId> flows_seen;
  for (const BaiTraceRow& row : trace.bai_rows()) {
    flows_seen.insert(row.flow);
    EXPECT_GE(row.enforced_level, 0);
    EXPECT_LE(row.enforced_level, row.recommended_level);
    EXPECT_GT(row.rate_bps, 0.0);
    EXPECT_GE(row.gbr_bps, row.rate_bps);  // headroom >= 1
    EXPECT_GT(row.smoothed_bits_per_rb, 0.0);
  }
  EXPECT_EQ(flows_seen.size(), 3u);
  EXPECT_GE(trace.bai_rows().size(), 3u * 25u);  // ~29 BAIs x 3 flows

  // Player summaries: one per video client, matching the result metrics.
  ASSERT_EQ(trace.players().size(), 3u);
  for (std::size_t i = 0; i < trace.players().size(); ++i) {
    EXPECT_EQ(trace.players()[i].client, static_cast<int>(i));
    EXPECT_DOUBLE_EQ(trace.players()[i].avg_bitrate_bps,
                     result.video[i].avg_bitrate_bps);
    EXPECT_EQ(trace.players()[i].switches, result.video[i].bitrate_changes);
  }

  // Cell / server / sim metrics populated.
  EXPECT_GE(registry.GetCounter("cell.ttis").value(), 29'000u);
  EXPECT_GT(registry.GetCounter("cell.rbs_used").value(), 0u);
  EXPECT_EQ(registry.GetCounter("oneapi.bais").value(),
            result.solve_times_ms.size());
  EXPECT_GT(registry.GetCounter("sim.events").value(), 0u);
  EXPECT_EQ(registry.GetHistogram("oneapi.solve_ms").count(),
            result.solve_times_ms.size());

  // TTI aggregates cover the run at ~1 row/s.
  EXPECT_GE(trace.tti_rows().size(), 25u);
}

TEST(Observability, DisabledRunMatchesEnabledRunResults) {
  // Attaching observers must not perturb simulation results.
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 20.0;
  const ScenarioResult plain = RunScenario(config);

  MetricsRegistry registry;
  BaiTraceSink trace;
  config.metrics = &registry;
  config.bai_trace = &trace;
  const ScenarioResult observed = RunScenario(config);

  ASSERT_EQ(plain.video.size(), observed.video.size());
  for (std::size_t i = 0; i < plain.video.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.video[i].avg_bitrate_bps,
                     observed.video[i].avg_bitrate_bps);
    EXPECT_EQ(plain.video[i].bitrate_changes,
              observed.video[i].bitrate_changes);
  }
  EXPECT_EQ(plain.data_throughput_bps, observed.data_throughput_bps);
}

// The four decision sinks tell one story: on a churned cell whose
// admission both admits and blocks, every enforced rung change shows up
// once as a span instant, once as a flight event, once in the QoE cause
// table and once as a BAI row whose rung differs from the flow's previous
// row; every admission reject shows up as both a span instant and a
// flight event; and every cause is one of Algorithm 1's.
TEST(Observability, DecisionSinksAgree) {
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 40.0;
  config.seed = 1;
  config.n_video = 2;
  config.churn.enabled = true;
  config.churn.arrival_rate_per_s = 1.0;
  config.churn.mean_hold_s = 30.0;
  config.churn.admission.policy = AdmissionPolicy::kUtilityDrop;
  config.churn.admission.objective_floor = -0.3;
  config.oneapi.deterministic_timing = true;
  MetricsRegistry registry;
  BaiTraceSink trace;
  SpanTracer spans;
  QoeAnalytics qoe;
  FlightRecorder flight(1 << 16);  // never wraps in this run
  config.metrics = &registry;
  config.bai_trace = &trace;
  config.span_trace = &spans;
  config.qoe = &qoe;
  config.flight = &flight;
  const ScenarioResult result = RunScenario(config);
  ASSERT_GT(result.sessions_blocked, 0u);
  ASSERT_GT(result.sessions_arrived, result.sessions_blocked);
  ASSERT_EQ(flight.dropped(), 0u);

  const std::vector<const char*>& names = AllDecisionCauseNames();
  const auto is_cause = [&names](const std::string& cause) {
    return std::any_of(names.begin(), names.end(),
                       [&cause](const char* name) { return cause == name; });
  };

  std::size_t span_changes = 0;
  std::size_t span_rejects = 0;
  for (const TraceEvent& e : spans.events()) {
    if (e.ph != 'i') continue;
    if (std::string(e.name) == "rung_change") ++span_changes;
    if (std::string(e.name) == "admission_reject") ++span_rejects;
  }
  std::size_t flight_changes = 0;
  std::size_t flight_rejects = 0;
  for (const FlightEvent& e : flight.RecentEvents()) {
    if (std::string(e.kind) == "rung_change") ++flight_changes;
    if (std::string(e.kind) == "admission_reject") ++flight_rejects;
  }
  std::size_t row_changes = 0;
  std::map<FlowId, int> last_level;
  for (const BaiTraceRow& row : trace.bai_rows()) {
    EXPECT_TRUE(is_cause(row.cause)) << row.cause;
    const auto last = last_level.find(row.flow);
    const int previous = last == last_level.end() ? -1 : last->second;
    if (row.enforced_level != previous) ++row_changes;
    last_level[row.flow] = row.enforced_level;
  }
  std::ostringstream qoe_json;
  qoe.WriteJson(qoe_json);
  JsonValue doc;
  ASSERT_TRUE(ParseJson(qoe_json.str(), &doc));
  const JsonValue* causes = doc.FindPath({"summary", "rung_change_causes"});
  ASSERT_NE(causes, nullptr);
  std::size_t qoe_changes = 0;
  for (const auto& [cause, count] : causes->members()) {
    EXPECT_TRUE(is_cause(cause)) << cause;
    qoe_changes += static_cast<std::size_t>(count.AsNumber());
  }

  EXPECT_GT(span_changes, 0u);
  EXPECT_EQ(flight_changes, span_changes);
  EXPECT_EQ(qoe_changes, span_changes);
  EXPECT_EQ(row_changes, span_changes);
  EXPECT_GT(span_rejects, 0u);
  EXPECT_EQ(flight_rejects, span_rejects);
}

// --- Histogram quantiles ----------------------------------------------------

/// Exact nearest-rank quantile of an unsorted sample.
double ExactQuantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  return NearestRankQuantile(values, q);
}

TEST(Histogram, QuantileIsMidpointOfNearestRankSubBucket) {
  Histogram h;
  for (int i = 0; i < 5; ++i) h.Observe(5.0);   // (4.75, 5] in (4, 8]
  for (int i = 0; i < 3; ++i) h.Observe(15.0);  // (14.5, 15] in (8, 16]
  for (int i = 0; i < 2; ++i) h.Observe(30.0);  // (29, 30] in (16, 32]
  // Rank ceil(q * 10) picks the sample; its sub-bucket's midpoint is
  // the estimate.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 4.875);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 4.875);   // rank 5
  EXPECT_DOUBLE_EQ(h.Quantile(0.51), 14.75);  // rank 6
  EXPECT_DOUBLE_EQ(h.Quantile(0.8), 14.75);   // rank 8
  EXPECT_DOUBLE_EQ(h.Quantile(0.9), 29.5);    // rank 9
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 29.5);
  // Out-of-range q clamps.
  EXPECT_DOUBLE_EQ(h.Quantile(2.0), h.Quantile(1.0));
  EXPECT_DOUBLE_EQ(h.Quantile(-1.0), h.Quantile(0.0));
}

TEST(Histogram, QuantileEdgeCases) {
  // Empty histogram: NaN, never a fake 0 — downstream JSON renders null.
  Histogram empty;
  EXPECT_TRUE(std::isnan(empty.Quantile(0.5)));
  EXPECT_TRUE(std::isnan(empty.Quantile(0.0)));
  EXPECT_TRUE(std::isnan(empty.Quantile(1.0)));

  // Negative values share the zero bucket; the sum stays exact.
  Histogram mixed;
  mixed.Observe(-2.0);
  mixed.Observe(0.0);
  mixed.Observe(1e12);
  EXPECT_EQ(mixed.Quantile(0.5), 0.0);
  EXPECT_NEAR(mixed.Quantile(1.0), 1e12, Histogram::kRelativeError * 1e12);
  EXPECT_DOUBLE_EQ(mixed.sum(), 1e12 - 2.0);
  EXPECT_EQ(mixed.CumulativeEdges().front().count, 2u);
}

// Deterministic timing records every solve as 0: the quantiles must say
// 0, not a point inside some first bucket.
TEST(Histogram, ZeroObservationsReportZeroQuantiles) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("oneapi.solve_ms");
  for (int i = 0; i < 30; ++i) h.Observe(0.0);
  EXPECT_EQ(h.Quantile(0.50), 0.0);
  EXPECT_EQ(h.Quantile(0.95), 0.0);
  EXPECT_EQ(h.Quantile(0.99), 0.0);
  std::ostringstream out;
  registry.WriteJson(out);
  EXPECT_NE(out.str().find("\"p50\": 0, \"p95\": 0, \"p99\": 0"),
            std::string::npos)
      << out.str();
}

// Microsecond solve times recorded in ms: a fixed-bound layout whose
// first bucket is (0, 0.01] reported p50 = 0.005, 4.1x the truth.
TEST(Histogram, MicrosecondCorpusInMillisecondsWithinBound) {
  Rng rng(1905);
  Histogram h;
  std::vector<double> values;
  for (int i = 0; i < 5000; ++i) {
    const double ms = 1.2e-3 * std::exp(rng.Gaussian(0.0, 0.4));
    values.push_back(ms);
    h.Observe(ms);
  }
  for (const double q : {0.5, 0.99}) {
    const double exact = ExactQuantile(values, q);
    EXPECT_LE(std::abs(h.Quantile(q) - exact),
              Histogram::kRelativeError * exact)
        << "q=" << q << " exact=" << exact;
  }
}

/// Seeded corpus: three shapes at scales 1e-6..1e6, ~5% zeros mixed in.
std::vector<std::vector<double>> RandomizedCorpora() {
  Rng rng(20261018);
  std::vector<std::vector<double>> corpora;
  for (const double scale : {1e-6, 1e-3, 1.0, 1e3, 1e6}) {
    for (int shape = 0; shape < 3; ++shape) {
      std::vector<double> values;
      for (int i = 0; i < 2000; ++i) {
        double v = 0.0;
        if (rng.Uniform() >= 0.05) {
          switch (shape) {
            case 0:  // uniform
              v = rng.Uniform(0.0, scale);
              break;
            case 1:  // log-normal
              v = scale * std::exp(rng.Gaussian(0.0, 1.5));
              break;
            default:  // bimodal: two narrow modes 100x apart
              v = scale * (rng.Uniform() < 0.7 ? 1.0 : 100.0) *
                  rng.Uniform(0.9, 1.1);
          }
        }
        values.push_back(v);
      }
      corpora.push_back(std::move(values));
    }
  }
  return corpora;
}

TEST(Histogram, RandomizedCorpusQuantilesWithinStatedBound) {
  for (const std::vector<double>& values : RandomizedCorpora()) {
    Histogram h;
    for (double v : values) h.Observe(v);
    for (const double q : {0.01, 0.1, 0.5, 0.9, 0.95, 0.99}) {
      const double exact = ExactQuantile(values, q);
      EXPECT_LE(std::abs(h.Quantile(q) - exact),
                Histogram::kRelativeError * exact)
          << "q=" << q << " exact=" << exact;
    }
  }
}

TEST(Histogram, ShardedMergesMatchOneHistogram) {
  for (const std::vector<double>& values : RandomizedCorpora()) {
    for (const std::size_t k : {2u, 5u}) {
      Histogram single;
      std::vector<MetricsRegistry> shards(k);
      for (std::size_t i = 0; i < values.size(); ++i) {
        single.Observe(values[i]);
        shards[i * k / values.size()].GetHistogram("h").Observe(values[i]);
      }
      MetricsRegistry merged;
      MetricsSnapshot absorbed;
      for (const MetricsRegistry& shard : shards) {
        merged.MergeFrom(shard, "");
        absorbed.AbsorbFrom(shard);
      }
      for (const Histogram* h :
           {&merged.GetHistogram("h"), &absorbed.histograms.at("h")}) {
        EXPECT_EQ(h->count(), single.count());
        EXPECT_NEAR(h->sum(), single.sum(), 1e-9 * std::abs(single.sum()));
        const auto want = single.CumulativeEdges();
        const auto got = h->CumulativeEdges();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].le, want[i].le);
          EXPECT_EQ(got[i].count, want[i].count);
        }
        for (const double q : {0.0, 0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0}) {
          EXPECT_EQ(h->Quantile(q), single.Quantile(q)) << "q=" << q;
        }
      }
      std::ostringstream live;
      std::ostringstream snap;
      merged.WriteJson(live);
      absorbed.WriteJson(snap);
      EXPECT_EQ(live.str(), snap.str());
      EXPECT_EQ(RenderOpenMetrics(merged.Snapshot()),
                RenderOpenMetrics(absorbed));
    }
  }
}

TEST(MetricsRegistry, JsonHistogramsIncludeQuantiles) {
  MetricsRegistry registry;
  Histogram& h = registry.GetHistogram("h");
  for (int i = 0; i < 10; ++i) h.Observe(0.5);
  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(MetricsRegistry, JsonEmptyHistogramExportsNullNotNaN) {
  MetricsRegistry registry;
  registry.GetHistogram("empty");
  std::ostringstream out;
  registry.WriteJson(out);
  const std::string json = out.str();
  // A bare `nan` token is invalid JSON; empty aggregates must be null.
  EXPECT_EQ(json.find("nan"), std::string::npos) << json;
  EXPECT_NE(json.find("\"mean\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"p50\": null"), std::string::npos) << json;
}

// --- CSV escaping -----------------------------------------------------------

TEST(BaiTraceSink, CsvExportEscapesEmbeddedDelimiters) {
  BaiTraceSink sink;
  BaiTraceRow row;
  row.t_s = 1.0;
  row.flow = 7;
  row.cause = "a,\"b\"\nc";  // no cause string contains these today;
                             // the exporter must stay correct if one does
  sink.RecordBai(row);
  std::ostringstream out;
  sink.WriteCsv(out);
  const std::string csv = out.str();
  EXPECT_NE(csv.find("\"a,\"\"b\"\"\nc\""), std::string::npos);
  // An unremarkable cause stays unquoted.
  EXPECT_EQ(CsvField("solver-up"), "solver-up");
}

// --- Span tracer ------------------------------------------------------------

TEST(SpanTrace, NullTracerSitesAreInert) {
  SpanScope span(nullptr, kLaneControl, "cat", "name");
  EXPECT_FALSE(span.enabled());
  span.set_args("{\"k\":1}");
  span.Close();  // must be a safe no-op
}

TEST(SpanTrace, JsonQuoteEscapes) {
  EXPECT_EQ(JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(JsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(JsonQuote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(JsonQuote(std::string("a\x01z", 3)), "\"a\\u0001z\"");
}

TEST(SpanTrace, DeterministicModeZeroesDurations) {
  SpanTracer tracer;
  double now_us = 1000.0;
  tracer.SetClock([&now_us] { return now_us; });
  tracer.set_deterministic(true);
  {
    SpanScope span(&tracer, kLaneControl, "test", "work");
    now_us = 2000.0;
  }
  ASSERT_EQ(tracer.size(), 1u);
  EXPECT_DOUBLE_EQ(tracer.events()[0].ts_us, 1000.0);
  EXPECT_DOUBLE_EQ(tracer.events()[0].dur_us, 0.0);
}

TEST(SpanTrace, AbsorbAndSortIsDeterministic) {
  SpanTracer merged;
  SpanTracer shard_a;
  shard_a.set_default_pid(1);
  shard_a.Instant(kLaneControl, "t", "late", 200.0);
  shard_a.Instant(kLaneControl, "t", "early", 100.0);
  SpanTracer shard_b;
  shard_b.set_default_pid(2);
  shard_b.Instant(kLaneControl, "t", "mid", 150.0);
  merged.AbsorbShard(shard_a);
  merged.AbsorbShard(shard_b);
  merged.SortMergedEvents();
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_STREQ(merged.events()[0].name, "early");
  EXPECT_STREQ(merged.events()[1].name, "mid");
  EXPECT_STREQ(merged.events()[2].name, "late");

  std::ostringstream out;
  merged.WriteJson(out);
  EXPECT_TRUE(JsonParser(out.str()).Parse()) << out.str();
}

// --- Run-health watchdogs ---------------------------------------------------

TEST(Watchdog, InfeasibleStreakFiresOnceAndRearms) {
  WatchdogConfig config;
  config.infeasible_streak = 3;
  RunHealthMonitor monitor(config);
  EXPECT_TRUE(monitor.healthy());
  monitor.OnSolverResult(1.0, false);
  monitor.OnSolverResult(2.0, false);
  EXPECT_TRUE(monitor.healthy());  // below threshold
  monitor.OnSolverResult(3.0, false);
  ASSERT_EQ(monitor.warnings().size(), 1u);
  EXPECT_EQ(monitor.warnings()[0].kind, "infeasible_streak");
  EXPECT_DOUBLE_EQ(monitor.warnings()[0].t_s, 3.0);
  // Staying bad must not re-fire...
  monitor.OnSolverResult(4.0, false);
  monitor.OnSolverResult(5.0, false);
  EXPECT_EQ(monitor.warnings().size(), 1u);
  // ...until the signal recovers and goes bad for a full streak again.
  monitor.OnSolverResult(6.0, true);
  monitor.OnSolverResult(7.0, false);
  monitor.OnSolverResult(8.0, false);
  monitor.OnSolverResult(9.0, false);
  EXPECT_EQ(monitor.warnings().size(), 2u);
}

TEST(Watchdog, StallStreakIsPerClient) {
  WatchdogConfig config;
  config.stall_streak = 2;
  RunHealthMonitor monitor(config);
  monitor.OnPlayerScan(1.0, 0, 0.5);
  monitor.OnPlayerScan(1.0, 1, 0.0);  // client 1 is healthy
  monitor.OnPlayerScan(2.0, 0, 0.5);
  monitor.OnPlayerScan(2.0, 1, 0.0);
  ASSERT_EQ(monitor.warnings().size(), 1u);
  EXPECT_EQ(monitor.warnings()[0].kind, "stall_streak");
  EXPECT_EQ(monitor.warnings()[0].client, 0);
}

TEST(Watchdog, GbrShortfallNeedsFractionAndStreak) {
  WatchdogConfig config;
  config.gbr_shortfall_streak = 2;
  config.gbr_shortfall_fraction = 0.5;
  RunHealthMonitor monitor(config);
  monitor.OnGbrScan(1.0, /*shortfall=*/400.0, /*bai_gbr=*/1000.0);  // 40%
  monitor.OnGbrScan(2.0, 400.0, 1000.0);
  EXPECT_TRUE(monitor.healthy());  // under the fraction
  monitor.OnGbrScan(3.0, 600.0, 1000.0);
  monitor.OnGbrScan(4.0, 600.0, 1000.0);
  ASSERT_EQ(monitor.warnings().size(), 1u);
  EXPECT_EQ(monitor.warnings()[0].kind, "gbr_shortfall");
  // A cell with no GBR promised can never be short.
  RunHealthMonitor no_gbr(config);
  for (int i = 0; i < 10; ++i) no_gbr.OnGbrScan(i, 100.0, 0.0);
  EXPECT_TRUE(no_gbr.healthy());
}

TEST(Watchdog, StarvedFlowRequiresBacklog) {
  WatchdogConfig config;
  config.starved_flow_streak = 2;
  RunHealthMonitor monitor(config);
  // Backlogged but served: fine. Idle and unserved: fine.
  monitor.OnFlowScan(1.0, 9, /*backlogged=*/true, /*tx=*/100);
  monitor.OnFlowScan(2.0, 9, false, 0);
  EXPECT_TRUE(monitor.healthy());
  // Backlogged and served nothing, twice: starved.
  monitor.OnFlowScan(3.0, 9, true, 0);
  monitor.OnFlowScan(4.0, 9, true, 0);
  ASSERT_EQ(monitor.warnings().size(), 1u);
  EXPECT_EQ(monitor.warnings()[0].kind, "starved_flow");
  EXPECT_EQ(monitor.warnings()[0].flow, 9u);
}

TEST(Watchdog, AbsorbShardRestampsCellAndWritesJson) {
  WatchdogConfig config;
  config.stall_streak = 1;
  RunHealthMonitor shard(config);
  shard.OnPlayerScan(1.0, 0, 0.5);
  RunHealthMonitor merged;
  merged.AbsorbShard(shard, /*cell=*/3);
  merged.SortMergedWarnings();
  ASSERT_EQ(merged.warnings().size(), 1u);
  EXPECT_EQ(merged.warnings()[0].cell, 3);
  EXPECT_FALSE(merged.healthy());

  std::ostringstream out;
  merged.WriteJson(out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonParser(json).Parse()) << json;
  EXPECT_NE(json.find("\"healthy\": false"), std::string::npos);
  EXPECT_NE(json.find("stall_streak"), std::string::npos);
}

// --- End-to-end span tracing ------------------------------------------------

TEST(SpanTrace, MultiCellTraceJsonIsWellFormedAndCausal) {
  MultiCellConfig multi;
  multi.cell = TestbedPreset(Scheme::kFlare);
  multi.cell.duration_s = 10.0;
  multi.cell.seed = 3;
  multi.cell.oneapi.deterministic_timing = true;
  multi.n_cells = 2;
  multi.workers = 2;
  SpanTracer spans;
  RunHealthMonitor health;
  multi.span_trace = &spans;
  multi.health = &health;
  RunMultiCellScenario(multi);

  std::ostringstream out;
  spans.WriteJson(out);
  const std::string json = out.str();
  ASSERT_TRUE(JsonParser(json).Parse()) << json.substr(0, 400);

  // Control-loop and MAC spans both present, plus rung-change instants
  // carrying a machine-readable cause.
  for (const char* needle :
       {"\"traceEvents\"", "\"bai\"", "\"solve\"", "\"tti.window\"",
        "\"rung_change\"", "\"cause\":\"init\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }

  // Events from both cells (pids 1, 2) and nothing else.
  std::set<int> pids;
  for (const TraceEvent& e : spans.events()) pids.insert(e.pid);
  EXPECT_EQ(pids, (std::set<int>{1, 2}));

  // Deterministic timing: every recorded duration is exactly 0.
  for (const TraceEvent& e : spans.events()) {
    EXPECT_DOUBLE_EQ(e.dur_us, 0.0);
  }
}

TEST(SpanTrace, TracingDoesNotPerturbTheBaiTrace) {
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 15.0;
  config.oneapi.deterministic_timing = true;

  const auto run = [&config](bool traced) {
    BaiTraceSink trace;
    SpanTracer spans;
    RunHealthMonitor health;
    ScenarioConfig c = config;
    c.bai_trace = &trace;
    if (traced) {
      c.span_trace = &spans;
      c.health = &health;
    }
    RunScenario(c);
    std::ostringstream csv;
    trace.WriteCsv(csv);
    return csv.str();
  };

  const std::string off = run(false);
  const std::string on = run(true);
  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, on);
}

}  // namespace
}  // namespace flare
