// Figure 6: ns-3-style static scenario CDFs over 160 clients
// (8 stationary video clients x 20 runs) for FLARE, AVIS and FESTIVE.
//
// Prints the CDFs of per-client average bitrate (Fig. 6a) and number of
// bitrate changes (Fig. 6b), the paper's headline improvement
// percentages, and the per-scheme Jain fairness indices.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <vector>

#include "obs/bai_trace.h"
#include "obs/metrics.h"
#include "obs/qoe_analytics.h"
#include "scenario/experiment.h"
#include "scenario/scenario.h"
#include "util/csv.h"

namespace flare {
namespace {

int Main(int argc, char** argv) {
  const BenchScale scale = ScaleFromEnv(20, 1200.0, argc, argv);
  std::printf(
      "=== Figure 6: static scenario CDFs (%d runs x 8 clients x %.0f s) "
      "===\n\n",
      scale.runs, scale.duration_s);

  CsvWriter csv(BenchCsvPath("fig6_cdfs"),
                {"scheme", "quantile", "avg_bitrate_kbps", "changes"});

  // One batch over every (scheme, seed), so no core idles between
  // schemes; results come back in input order.
  constexpr Scheme kSchemes[] = {Scheme::kFlare, Scheme::kAvis,
                                 Scheme::kFestive};
  std::vector<ScenarioConfig> configs;
  for (Scheme scheme : kSchemes) {
    ScenarioConfig config = SimStaticPreset(scheme);
    config.duration_s = scale.duration_s;
    for (int r = 0; r < scale.runs; ++r) {
      config.seed = 100 + static_cast<std::uint64_t>(r);
      configs.push_back(config);
    }
  }
  const std::vector<ScenarioResult> results = RunMany(configs);

  std::map<Scheme, PooledMetrics> pooled;
  auto first = results.begin();
  for (Scheme scheme : kSchemes) {
    pooled[scheme] = Pool({first, first + scale.runs});
    first += scale.runs;

    const PooledMetrics& p = pooled[scheme];
    std::printf("--- %s (n=%zu clients) ---\n", SchemeName(scheme),
                p.avg_bitrate_kbps.count());
    PrintCdf("CDF of average bitrate (Kbps)", p.avg_bitrate_kbps);
    PrintCdf("CDF of number of bitrate changes", p.bitrate_changes);
    std::printf("mean Jain fairness index: %.3f\n\n", p.MeanJain());

    for (int q = 0; q <= 10; ++q) {
      const double quantile = q / 10.0;
      csv.RawRow({SchemeName(scheme), FormatNumber(quantile),
                  FormatNumber(p.avg_bitrate_kbps.Quantile(quantile)),
                  FormatNumber(p.bitrate_changes.Quantile(quantile))});
    }
  }

  const PooledMetrics& flare = pooled[Scheme::kFlare];
  const PooledMetrics& avis = pooled[Scheme::kAvis];
  const PooledMetrics& festive = pooled[Scheme::kFestive];

  std::printf("--- Headline comparisons (paper Section IV-B) ---\n");
  PrintPaperComparison(
      "FLARE avg bitrate gain vs AVIS (%)", 24.0,
      100.0 * (flare.MeanBitrateKbps() / avis.MeanBitrateKbps() - 1.0));
  PrintPaperComparison(
      "FLARE avg bitrate gain vs FESTIVE (%)", 39.0,
      100.0 * (flare.MeanBitrateKbps() / festive.MeanBitrateKbps() - 1.0));
  PrintPaperComparison(
      "FLARE bitrate-change reduction vs AVIS (%)", 26.0,
      100.0 * (1.0 - flare.MeanChanges() /
                         std::max(avis.MeanChanges(), 1e-9)));
  PrintPaperComparison(
      "FLARE bitrate-change reduction vs FESTIVE (%)", 66.0,
      100.0 * (1.0 - flare.MeanChanges() /
                         std::max(festive.MeanChanges(), 1e-9)));
  PrintPaperComparison("Jain index FLARE", 0.989, flare.MeanJain());
  PrintPaperComparison("Jain index AVIS", 0.989, avis.MeanJain());
  PrintPaperComparison("Jain index FESTIVE", 0.986, festive.MeanJain());

  // Structured export: one fully instrumented FLARE run (registry + BAI
  // trace + QoE engine + player summaries) alongside the pooled CDFs, in
  // the standardized BENCH_*.json envelope.
  {
    MetricsRegistry registry;
    BaiTraceSink trace;
    QoeAnalytics qoe;
    ScenarioConfig config = SimStaticPreset(Scheme::kFlare);
    config.duration_s = scale.duration_s;
    config.seed = 100;
    config.metrics = &registry;
    config.bai_trace = &trace;
    config.qoe = &qoe;
    RunScenario(config);
    BenchJsonWriter writer("fig6");
    writer.Echo("scheme", SchemeName(Scheme::kFlare));
    writer.Echo("duration_s", config.duration_s);
    writer.Echo("seed", static_cast<double>(config.seed));
    writer.Echo("n_video", static_cast<double>(config.n_video));
    writer.Echo("runs", static_cast<double>(scale.runs));
    writer.Export(BenchJsonPath("fig6"), trace, &registry,
                  /*health=*/nullptr, &qoe);
    std::printf("\nstructured metrics written to %s\n",
                BenchJsonPath("fig6").c_str());
  }

  std::printf("CDF curves written to %s\n",
              BenchCsvPath("fig6_cdfs").c_str());
  return 0;
}

}  // namespace
}  // namespace flare

int main(int argc, char** argv) { return flare::Main(argc, argv); }
