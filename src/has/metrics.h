// Per-client QoE metrics used throughout the paper's evaluation: average
// video bitrate, number of bitrate changes, buffer-underflow (rebuffer)
// time, and Jain's fairness index across clients (computed elsewhere from
// these summaries).
#pragma once

#include <vector>

#include "has/video_session.h"
#include "obs/qoe_analytics.h"

namespace flare {

struct ClientMetrics {
  double avg_bitrate_bps = 0.0;
  int bitrate_changes = 0;
  double rebuffer_time_s = 0.0;
  int rebuffer_events = 0;
  int segments = 0;
  double avg_throughput_bps = 0.0;  // mean of per-segment download rates
  /// Composite QoE (Yin et al. form, per segment): see QoeScore.
  double qoe = 0.0;
};

/// Switches in a per-segment bitrate sequence (adjacent unequal pairs).
int CountBitrateChanges(const std::vector<double>& bitrates);

/// Composite QoE from a per-segment bitrate sequence plus stall time over
/// the playback horizon, weighted as the online engine weighs it (see
/// QoeEngineWeights). Returns 0 for an empty sequence.
double QoeScore(const std::vector<double>& bitrates_bps,
                double rebuffer_s, double playtime_s,
                const QoeEngineWeights& weights = QoeEngineWeights{});

ClientMetrics ComputeClientMetrics(const VideoSession& session);

}  // namespace flare
