#include "has/metrics.h"

#include <cmath>

namespace flare {

int CountBitrateChanges(const std::vector<double>& bitrates) {
  int changes = 0;
  for (std::size_t i = 1; i < bitrates.size(); ++i) {
    if (bitrates[i] != bitrates[i - 1]) ++changes;
  }
  return changes;
}

double QoeScore(const std::vector<double>& bitrates_bps, double rebuffer_s,
                double playtime_s, const QoeEngineWeights& weights) {
  if (bitrates_bps.empty()) return 0.0;
  double quality = 0.0;
  double switching = 0.0;
  for (std::size_t i = 0; i < bitrates_bps.size(); ++i) {
    const double q = bitrates_bps[i] / 1e6;
    quality += q;
    if (i > 0) {
      switching += std::abs(q - bitrates_bps[i - 1] / 1e6);
    }
  }
  const double k = static_cast<double>(bitrates_bps.size());
  const double stall_fraction =
      playtime_s > 0.0 ? rebuffer_s / playtime_s : 0.0;
  return (quality - weights.lambda_switch * switching) / k -
         weights.mu_rebuffer * stall_fraction;
}

ClientMetrics ComputeClientMetrics(const VideoSession& session) {
  ClientMetrics m;
  const std::vector<double>& bitrates = session.player().segment_bitrates();
  m.segments = static_cast<int>(bitrates.size());
  double sum = 0.0;
  for (double b : bitrates) sum += b;
  m.avg_bitrate_bps = bitrates.empty()
                          ? 0.0
                          : sum / static_cast<double>(bitrates.size());
  m.bitrate_changes = CountBitrateChanges(bitrates);
  m.rebuffer_time_s = session.player().rebuffer_time_s();
  m.rebuffer_events = session.player().rebuffer_events();

  const std::vector<double>& tputs = session.throughput_history();
  double tput_sum = 0.0;
  for (double t : tputs) tput_sum += t;
  m.avg_throughput_bps =
      tputs.empty() ? 0.0 : tput_sum / static_cast<double>(tputs.size());

  const double playtime_s =
      session.player().played_s() + m.rebuffer_time_s;
  m.qoe = QoeScore(bitrates, m.rebuffer_time_s, playtime_s);
  return m;
}

}  // namespace flare
