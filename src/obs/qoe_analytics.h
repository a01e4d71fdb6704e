// Online per-session QoE analytics: the third observability tier.
//
// The paper's evaluation (Figs. 6-12) is phrased entirely in per-session
// QoE terms — average bitrate, bitrate-switch instability, stall count and
// ratio, startup delay, and Jain fairness across the video flows of a cell
// — while the first two tiers (MetricsRegistry counters/histograms and the
// per-BAI trace) only expose raw events. This engine ingests player and
// controller hooks as they happen and keeps streaming aggregators per
// session, so every run exports paper-comparable QoE without each bench
// recomputing it ad hoc.
//
// Sharding and determinism follow the MetricsRegistry model: one engine
// per cell, no locking, merged post-run in cell order via
// AbsorbShard. All state lives in ordered maps keyed (cell, session), so
// WriteJson output is byte-identical for any worker count.
//
// The composite score mirrors has/metrics.h QoeScore (Yin et al.):
//   QoE = (sum q(R_k) - lambda * sum |q(R_k) - q(R_{k-1})|) / K
//         - mu * rebuffer_s / playtime_s,   q(R) = R in Mbps,
// with playtime = played_s + stall_s. Both take their weights from
// QoeEngineWeights below.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lte/types.h"

namespace flare {

/// Weights of the composite QoE objective, shared by this engine and the
/// offline has/metrics.h QoeScore — the linear QoE model of Yin et al.
struct QoeEngineWeights {
  double lambda_switch = 1.0;
  double mu_rebuffer = 8.0;
};

/// Where a tracked session came from; exported as a string so runs under
/// churn can split admitted-dynamic QoE from the static population.
enum class QoeSessionOrigin { kStaticVideo, kConventional, kDynamicVideo };

const char* QoeSessionOriginName(QoeSessionOrigin origin);

/// Point-in-time aggregates for the live telemetry plane. Same semantics
/// as the end-of-run summary: averages and fairness are over sessions
/// that played at least one segment.
struct QoeLiveSummary {
  std::uint64_t sessions = 0;
  std::uint64_t played = 0;
  double avg_bitrate_bps = 0.0;
  double jain_avg_bitrate = 1.0;
  double avg_qoe = 0.0;
  double stall_ratio = 0.0;
  std::uint64_t stalls = 0;
  std::uint64_t switches = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;
  double blocking_probability = 0.0;
};

struct QoeSessionStats {
  int cell = 0;
  int session = -1;
  FlowId flow = kInvalidFlow;
  QoeSessionOrigin origin = QoeSessionOrigin::kStaticVideo;
  double start_s = 0.0;
  bool ended = false;
  double end_s = 0.0;
  double played_s = 0.0;
  /// Time from session start to first frame; < 0 until playout starts.
  double startup_delay_s = -1.0;
  std::uint64_t segments = 0;
  /// Media seconds fetched (sum of segment durations).
  double media_s = 0.0;
  double bitrate_sum_bps = 0.0;
  double last_bitrate_bps = -1.0;
  std::uint64_t switches = 0;
  /// Streaming terms of the Yin et al. score, in Mbps.
  double quality_sum = 0.0;
  double switch_magnitude_sum = 0.0;
  std::uint64_t stalls = 0;
  double stall_s = 0.0;
  /// Timestamp of the open stall edge; < 0 when not stalled.
  double active_stall_begin_s = -1.0;

  double AvgBitrateBps() const;
  /// stall / (played + stall); 0 when the session never played.
  double StallRatio() const;
  /// Composite score; only meaningful once segments > 0 (else 0).
  double Qoe(const QoeEngineWeights& weights) const;
};

class QoeAnalytics {
 public:
  explicit QoeAnalytics(QoeEngineWeights weights = {});

  const QoeEngineWeights& weights() const { return weights_; }
  /// Cell tag stamped on all subsequently recorded state (shard mode).
  void set_cell(int cell) { cell_ = cell; }

  // --- Session lifecycle hooks (driven by the scenario layer/player) ---
  void StartSession(int session, FlowId flow, double t_s,
                    QoeSessionOrigin origin);
  void OnPlayoutStart(int session, double t_s);
  void OnSegment(int session, double bitrate_bps, double duration_s);
  void OnStallBegin(int session, double t_s);
  void OnStallEnd(int session, double t_s);
  /// Close the session; an open stall is accounted up to `t_s`.
  void EndSession(int session, double t_s, double played_s);

  // --- Cell-level feeds ---
  /// Admission verdict for a dynamic session (true = admitted).
  void OnAdmissionVerdict(bool admitted);
  /// An enforced rung change, tagged with its DecisionCauseName(). The
  /// cause arrives as a string so obs/ stays independent of core/.
  void OnRungChange(const char* cause);

  // --- Post-run merge (multi-cell), MetricsRegistry::MergeFrom-style ---
  /// Fold a shard's sessions and cell aggregates in, restamping them with
  /// `cell`. Deterministic given a fixed absorb order.
  void AbsorbShard(const QoeAnalytics& shard, int cell);

  // --- Export ---
  /// `qoe` section of the metrics JSON: per-session rows in (cell,
  /// session) order, per-cell aggregates, and a run summary. All numbers
  /// go through JsonNumber so the bytes are deterministic.
  void WriteJson(std::ostream& out) const;
  /// One CSV row per session; false if the file cannot be opened.
  bool ExportCsv(const std::string& path) const;

  // --- Introspection (tests, result plumbing, live telemetry) ---
  /// Read-only mid-run aggregates across every tracked session. Called
  /// between BAI slices by the telemetry publisher; never mutates, so a
  /// run's bytes are identical with or without telemetry attached.
  QoeLiveSummary LiveSummary() const;
  const QoeSessionStats* FindSession(int cell, int session) const;
  std::size_t session_count() const { return sessions_.size(); }
  std::uint64_t admitted() const;
  std::uint64_t blocked() const;

 private:
  struct CellAggregates {
    std::uint64_t admitted = 0;
    std::uint64_t blocked = 0;
    /// Enforced rung changes by DecisionCauseName(), ordered by name.
    std::map<std::string, std::uint64_t> rung_change_causes;

    void Add(const CellAggregates& other);
  };

  QoeSessionStats* Session(int session);
  CellAggregates Totals() const;
  std::vector<const QoeSessionStats*> AllSessions() const;
  /// Aggregates of `sessions` with `agg`'s admission counts; each dynamic
  /// session's QoE (0 if it never played) goes to `dynamic_qoe` if given.
  QoeLiveSummary Summarize(const std::vector<const QoeSessionStats*>& sessions,
                           const CellAggregates& agg,
                           std::vector<double>* dynamic_qoe) const;
  void WriteAggregateJson(std::ostream& out,
                          const std::vector<const QoeSessionStats*>& sessions,
                          const CellAggregates& agg) const;

  QoeEngineWeights weights_;
  int cell_ = 0;
  std::map<std::pair<int, int>, QoeSessionStats> sessions_;
  std::map<int, CellAggregates> cells_;
};

}  // namespace flare
