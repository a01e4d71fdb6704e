// Figure 7: ns-3-style mobile (vehicular) scenario CDFs over 160 clients
// for FLARE, AVIS and FESTIVE. UEs follow random-waypoint mobility at
// 10..30 m/s inside the 2000 m x 2000 m area of Table III.
//
// Paper headline: FLARE's advantages widen relative to the static case —
// +53% / +47% average bitrate vs AVIS / FESTIVE and 85% / 95% fewer rate
// changes.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <vector>

#include "scenario/experiment.h"
#include "scenario/scenario.h"
#include "util/csv.h"

namespace flare {
namespace {

int Main(int argc, char** argv) {
  const BenchScale scale = ScaleFromEnv(20, 1200.0, argc, argv);
  std::printf(
      "=== Figure 7: mobile scenario CDFs (%d runs x 8 clients x %.0f s, "
      "random waypoint 10..30 m/s) ===\n\n",
      scale.runs, scale.duration_s);

  CsvWriter csv(BenchCsvPath("fig7_cdfs"),
                {"scheme", "quantile", "avg_bitrate_kbps", "changes"});

  // One batch over every (scheme, seed), so no core idles between
  // schemes; results come back in input order.
  constexpr Scheme kSchemes[] = {Scheme::kFlare, Scheme::kAvis,
                                 Scheme::kFestive};
  std::vector<ScenarioConfig> configs;
  for (Scheme scheme : kSchemes) {
    ScenarioConfig config = SimMobilePreset(scheme);
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
      "FLARE avg bitrate gain vs AVIS (%)", 53.0,
      100.0 * (flare.MeanBitrateKbps() / avis.MeanBitrateKbps() - 1.0));
  PrintPaperComparison(
      "FLARE avg bitrate gain vs FESTIVE (%)", 47.0,
      100.0 * (flare.MeanBitrateKbps() / festive.MeanBitrateKbps() - 1.0));
  PrintPaperComparison(
      "FLARE bitrate-change reduction vs AVIS (%)", 85.0,
      100.0 * (1.0 - flare.MeanChanges() /
                         std::max(avis.MeanChanges(), 1e-9)));
  PrintPaperComparison(
      "FLARE bitrate-change reduction vs FESTIVE (%)", 95.0,
      100.0 * (1.0 - flare.MeanChanges() /
                         std::max(festive.MeanChanges(), 1e-9)));
  PrintPaperComparison("Jain index FLARE", 0.999, flare.MeanJain());
  PrintPaperComparison("Jain index AVIS", 0.988, avis.MeanJain());
  PrintPaperComparison("Jain index FESTIVE", 0.993, festive.MeanJain());
  std::printf("\nCDF curves written to %s\n",
              BenchCsvPath("fig7_cdfs").c_str());
  return 0;
}

}  // namespace
}  // namespace flare

int main(int argc, char** argv) { return flare::Main(argc, argv); }
