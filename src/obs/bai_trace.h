// The OneAPI server's decisions and the structured per-BAI trace.
//
// Each of the server's two decisions (Section II-A) is built once as a
// typed record — an AdmissionVerdict at connect, a DecisionEvent per flow
// per BAI (BaiEngine::Event) — and DecisionSinks::Render is the one place
// that writes it into the sinks. A DecisionEvent becomes the BAI trace row
// and a gbr_push span instant and flight event, plus, on a rung change, a
// rung_change instant, flight event and QoE cause count. A verdict becomes
// an admission_admit or admission_reject flight event, plus a reject's
// admission_reject instant. QoE's admitted/blocked counts stay with the
// scenario world, which counts churned arrivals only. Without sinks a
// producer holds no DecisionSinks: the disabled path is one check.
//
// The BaiTraceSink records three row families:
//  * one BaiTraceRow (a DecisionEvent) per video flow per BAI — the full
//    decision context, so rate-adaptation behaviour can be audited
//    flow-by-flow and interval-by-interval;
//  * per-TTI scheduler aggregates (RBs per phase, GBR credit shortfall),
//    folded into one TtiAggregateRow per flush period so a 600 s run emits
//    hundreds of rows, not hundreds of thousands;
//  * one PlayerSummary per video client at teardown (stalls, switches,
//    QoE), closing the loop from network decisions to viewer experience.
// Like the metrics handles, a null sink pointer disables a sink; its
// producers (DecisionSinks, Cell, the scenario world) check one pointer
// per record site.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "lte/types.h"
#include "util/time.h"

namespace flare {

class BaiTraceSink;
class FlightRecorder;
class MetricsRegistry;
class QoeAnalytics;
class RunHealthMonitor;
class SpanTracer;

/// One flow's decision at one BAI. `t_s` and `cell` are the renderer's
/// stamp (cell 0 in single-cell runs). e_u is this BAI's raw sample (the
/// nominal fallback for an idle flow) and the EWMA-smoothed estimate fed
/// to the optimizer. The BAI-level context repeats on each of the BAI's
/// events.
struct DecisionEvent {
  double t_s = 0.0;
  int cell = 0;
  FlowId flow = kInvalidFlow;
  double observed_bits_per_rb = 0.0;
  double smoothed_bits_per_rb = 0.0;
  /// Solver recommendation L* before Algorithm 1's hysteresis.
  int recommended_level = 0;
  /// Consecutive-up counter after this BAI (0 unless an increase is
  /// pending adoption).
  int hysteresis_up = 0;
  /// Rung enforced by the flow's previous BAI (-1 on its first).
  int previous_level = -1;
  /// Rung enforced on client and scheduler after the stability rule.
  int enforced_level = 0;
  double rate_bps = 0.0;
  double gbr_bps = 0.0;
  double video_fraction = 0.0;
  double solve_time_ms = 0.0;
  bool feasible = true;
  /// Stability-rule branch that produced enforced_level, a static
  /// DecisionCauseName() string: "init", "hold", "solver-up",
  /// "hysteresis-adopted", "stability-cap", "capacity-down", ...
  const char* cause = "";
};

/// A connect's admission verdict; `policy` is a static
/// AdmissionPolicyName() string and `value` its diagnostic.
struct AdmissionVerdict {
  FlowId flow = kInvalidFlow;
  bool admitted = true;
  const char* policy = "";
  double value = 0.0;
};

/// The four decision sinks (any may be null) and the one renderer.
struct DecisionSinks {
  BaiTraceSink* bai_trace = nullptr;
  SpanTracer* spans = nullptr;
  QoeAnalytics* qoe = nullptr;
  FlightRecorder* flight = nullptr;
  int cell = 0;  // stamped on every DecisionEvent

  bool any() const { return bai_trace || spans || qoe || flight; }
  void Render(SimTime at, DecisionEvent event) const;
  void Render(SimTime at, const AdmissionVerdict& verdict) const;
};

/// Args of the server's `oneapi`/`bai` span.
std::string BaiSpanArgs(std::size_t flows, double video_fraction,
                        bool feasible);

using BaiTraceRow = DecisionEvent;  // one row per video flow per BAI

/// Scheduler aggregates over one flush period (default 1 s).
struct TtiAggregateRow {
  double t_s = 0.0;  // end of the aggregation period
  /// Cell (event domain) the row came from; 0 in single-cell runs.
  int cell = 0;
  std::uint64_t ttis = 0;
  std::uint64_t rbs_priority = 0;  // GBR / priority-set phase
  std::uint64_t rbs_shared = 0;    // PF / shared phase
  /// Mean unserved GBR credit (bytes still owed after the TTI) over the
  /// period — sustained positive values mean the cell cannot honour the
  /// GBRs the optimizer asked for.
  double mean_gbr_shortfall_bytes = 0.0;
};

/// End-of-run per-client summary.
struct PlayerSummary {
  /// Cell (event domain) the client streamed through; 0 single-cell.
  int cell = 0;
  int client = -1;
  FlowId flow = kInvalidFlow;
  double avg_bitrate_bps = 0.0;
  int switches = 0;
  int stalls = 0;
  double stall_s = 0.0;
  double qoe = 0.0;
  int segments = 0;
};

class BaiTraceSink {
 public:
  /// `tti_flush_period` controls TTI-aggregate granularity.
  explicit BaiTraceSink(SimTime tti_flush_period = kSecond);

  void RecordBai(const BaiTraceRow& row) { bai_rows_.push_back(row); }
  /// Accumulate one TTI's scheduler stats; emits an aggregate row each
  /// time `now` crosses a flush-period boundary.
  void RecordTti(SimTime now, int rbs_priority, int rbs_shared,
                 double gbr_shortfall_bytes);
  void RecordPlayer(const PlayerSummary& summary) {
    players_.push_back(summary);
  }
  /// Fold any partially accumulated TTI window into a final aggregate row
  /// (call once after the run).
  void Flush(SimTime now);

  /// Append every row of `shard`, stamping it with `cell` — the merge
  /// half of the sharded runtime: each event domain records into its own
  /// sink, and the coordinator absorbs the shards after the run. Call
  /// SortMergedRows() once after the last shard so the merged trace reads
  /// as one interleaved timeline.
  void AbsorbShard(const BaiTraceSink& shard, int cell);
  /// Deterministic global order: BAI rows by (t_s, cell, flow), TTI rows
  /// by (t_s, cell), players by (cell, client). Stable, so same-key rows
  /// keep shard order; the result is independent of absorb order and of
  /// how many worker threads produced the shards.
  void SortMergedRows();

  const std::vector<BaiTraceRow>& bai_rows() const { return bai_rows_; }
  const std::vector<TtiAggregateRow>& tti_rows() const { return tti_rows_; }
  const std::vector<PlayerSummary>& players() const { return players_; }

  /// BAI rows as CSV (header + one line per row; util/csv.h formatting).
  void WriteCsv(std::ostream& out) const;
  /// File form of WriteCsv. Returns false if unwritable.
  bool ExportCsv(const std::string& path) const;
  /// Full structured export: {"metrics": ..., "run_health": ...,
  /// "qoe": ..., "bai_trace": [...], "tti_aggregates": [...],
  /// "players": [...]}. `registry`, `health` and `qoe` may be null, in
  /// which case their sections are written as null.
  void WriteJson(std::ostream& out, const MetricsRegistry* registry,
                 const RunHealthMonitor* health = nullptr,
                 const QoeAnalytics* qoe = nullptr) const;
  bool ExportJson(const std::string& path,
                  const MetricsRegistry* registry = nullptr,
                  const RunHealthMonitor* health = nullptr,
                  const QoeAnalytics* qoe = nullptr) const;

 private:
  SimTime flush_period_;
  SimTime window_start_ = 0;
  TtiAggregateRow pending_;
  double pending_shortfall_sum_ = 0.0;

  std::vector<BaiTraceRow> bai_rows_;
  std::vector<TtiAggregateRow> tti_rows_;
  std::vector<PlayerSummary> players_;
};

}  // namespace flare
