#include "obs/bai_trace.h"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/qoe_analytics.h"
#include "obs/span_trace.h"
#include "obs/watchdog.h"
#include "util/csv.h"

namespace flare {

void DecisionSinks::Render(SimTime at, DecisionEvent event) const {
  event.t_s = ToSeconds(at);
  event.cell = cell;
  const bool changed = event.enforced_level != event.previous_level;
  // `"from":..,"to":..,"cause":".."}`: the change's flight and span args.
  std::string change;
  if (changed && (flight != nullptr || spans != nullptr)) {
    change = "\"from\":" + std::to_string(event.previous_level) + ",\"to\":" +
             std::to_string(event.enforced_level) + ",\"cause\":\"" +
             event.cause + "\"}";
  }
  if (changed && qoe != nullptr) qoe->OnRungChange(event.cause);
  if (flight != nullptr) {
    if (changed) {
      flight->Record(event.t_s, "rung_change", event.flow, -1,
                     event.enforced_level, "{" + change);
    }
    flight->Record(event.t_s, "gbr_push", event.flow, -1, event.gbr_bps);
  }
  if (spans != nullptr) {
    const std::string flow = "{\"flow\":" + std::to_string(event.flow) + ",";
    const double ts_us = static_cast<double>(at);
    if (changed) {
      spans->Instant(kLaneControl, "decision", "rung_change", ts_us,
                     flow + change);
    }
    spans->Instant(kLaneControl, "oneapi", "gbr_push", ts_us,
                   flow + "\"gbr_kbps\":" +
                       FormatNumber(event.gbr_bps / 1000.0) + "}");
  }
  if (bai_trace != nullptr) bai_trace->RecordBai(event);
}

void DecisionSinks::Render(SimTime at, const AdmissionVerdict& v) const {
  const std::string policy = std::string("\"policy\":\"") + v.policy + "\"";
  if (flight != nullptr && v.admitted) {
    flight->Record(ToSeconds(at), "admission_admit", v.flow);
  } else if (flight != nullptr) {
    flight->Record(ToSeconds(at), "admission_reject", v.flow, -1, v.value,
                   "{" + policy + "}");
  }
  if (spans != nullptr && !v.admitted) {
    spans->Instant(kLaneControl, "churn", "admission_reject",
                   static_cast<double>(at),
                   "{\"flow\":" + std::to_string(v.flow) + "," + policy +
                       ",\"value\":" + FormatNumber(v.value) + "}");
  }
}

std::string BaiSpanArgs(std::size_t flows, double video_fraction,
                        bool feasible) {
  return "{\"flows\":" + std::to_string(flows) + ",\"video_fraction\":" +
         FormatNumber(video_fraction) + ",\"feasible\":" +
         (feasible ? "true" : "false") + "}";
}

BaiTraceSink::BaiTraceSink(SimTime tti_flush_period)
    : flush_period_(std::max<SimTime>(tti_flush_period, kTti)) {}

void BaiTraceSink::RecordTti(SimTime now, int rbs_priority, int rbs_shared,
                             double gbr_shortfall_bytes) {
  if (now - window_start_ >= flush_period_ && pending_.ttis > 0) {
    Flush(now);
  }
  ++pending_.ttis;
  pending_.rbs_priority += static_cast<std::uint64_t>(rbs_priority);
  pending_.rbs_shared += static_cast<std::uint64_t>(rbs_shared);
  pending_shortfall_sum_ += gbr_shortfall_bytes;
}

void BaiTraceSink::Flush(SimTime now) {
  if (pending_.ttis == 0) {
    window_start_ = now;
    return;
  }
  pending_.t_s = ToSeconds(now);
  pending_.mean_gbr_shortfall_bytes =
      pending_shortfall_sum_ / static_cast<double>(pending_.ttis);
  tti_rows_.push_back(pending_);
  pending_ = TtiAggregateRow{};
  pending_shortfall_sum_ = 0.0;
  window_start_ = now;
}

void BaiTraceSink::AbsorbShard(const BaiTraceSink& shard, int cell) {
  for (BaiTraceRow row : shard.bai_rows_) {
    row.cell = cell;
    bai_rows_.push_back(row);
  }
  for (TtiAggregateRow row : shard.tti_rows_) {
    row.cell = cell;
    tti_rows_.push_back(row);
  }
  for (PlayerSummary player : shard.players_) {
    player.cell = cell;
    players_.push_back(player);
  }
}

void BaiTraceSink::SortMergedRows() {
  std::stable_sort(bai_rows_.begin(), bai_rows_.end(),
                   [](const BaiTraceRow& a, const BaiTraceRow& b) {
                     if (a.t_s != b.t_s) return a.t_s < b.t_s;
                     if (a.cell != b.cell) return a.cell < b.cell;
                     return a.flow < b.flow;
                   });
  std::stable_sort(tti_rows_.begin(), tti_rows_.end(),
                   [](const TtiAggregateRow& a, const TtiAggregateRow& b) {
                     if (a.t_s != b.t_s) return a.t_s < b.t_s;
                     return a.cell < b.cell;
                   });
  std::stable_sort(players_.begin(), players_.end(),
                   [](const PlayerSummary& a, const PlayerSummary& b) {
                     if (a.cell != b.cell) return a.cell < b.cell;
                     return a.client < b.client;
                   });
}

void BaiTraceSink::WriteCsv(std::ostream& out) const {
  out << "t_s,cell,flow,observed_bits_per_rb,smoothed_bits_per_rb,"
         "recommended_level,hysteresis_up,enforced_level,rate_kbps,"
         "gbr_kbps,video_fraction,solve_time_ms,feasible,cause\n";
  for (const BaiTraceRow& r : bai_rows_) {
    out << FormatNumber(r.t_s) << ',' << r.cell << ',' << r.flow << ','
        << FormatNumber(r.observed_bits_per_rb) << ','
        << FormatNumber(r.smoothed_bits_per_rb) << ','
        << r.recommended_level << ',' << r.hysteresis_up << ','
        << r.enforced_level << ',' << FormatNumber(r.rate_bps / 1000.0)
        << ',' << FormatNumber(r.gbr_bps / 1000.0) << ','
        << FormatNumber(r.video_fraction) << ','
        << FormatNumber(r.solve_time_ms) << ',' << (r.feasible ? 1 : 0)
        << ',' << CsvField(r.cause) << '\n';
  }
}

bool BaiTraceSink::ExportCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  WriteCsv(out);
  return true;
}

void BaiTraceSink::WriteJson(std::ostream& out,
                             const MetricsRegistry* registry,
                             const RunHealthMonitor* health,
                             const QoeAnalytics* qoe) const {
  out << "{\n\"metrics\": ";
  if (registry != nullptr) {
    registry->WriteJson(out);
  } else {
    out << "null\n";
  }
  out << ",\n\"run_health\": ";
  if (health != nullptr) {
    health->WriteJson(out);
  } else {
    out << "null";
  }
  out << ",\n\"qoe\": ";
  if (qoe != nullptr) {
    qoe->WriteJson(out);
  } else {
    out << "null";
  }
  out << ",\n\"bai_trace\": [";
  for (std::size_t i = 0; i < bai_rows_.size(); ++i) {
    const BaiTraceRow& r = bai_rows_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"t_s\": " << FormatNumber(r.t_s)
        << ", \"cell\": " << r.cell << ", \"flow\": " << r.flow
        << ", \"observed_bits_per_rb\": "
        << FormatNumber(r.observed_bits_per_rb)
        << ", \"smoothed_bits_per_rb\": "
        << FormatNumber(r.smoothed_bits_per_rb)
        << ", \"recommended_level\": " << r.recommended_level
        << ", \"hysteresis_up\": " << r.hysteresis_up
        << ", \"enforced_level\": " << r.enforced_level
        << ", \"rate_bps\": " << FormatNumber(r.rate_bps)
        << ", \"gbr_bps\": " << FormatNumber(r.gbr_bps)
        << ", \"video_fraction\": " << FormatNumber(r.video_fraction)
        << ", \"solve_time_ms\": " << FormatNumber(r.solve_time_ms)
        << ", \"feasible\": " << (r.feasible ? "true" : "false")
        << ", \"cause\": " << JsonQuote(r.cause) << '}';
  }
  out << "],\n\"tti_aggregates\": [";
  for (std::size_t i = 0; i < tti_rows_.size(); ++i) {
    const TtiAggregateRow& r = tti_rows_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"t_s\": " << FormatNumber(r.t_s)
        << ", \"cell\": " << r.cell << ", \"ttis\": " << r.ttis
        << ", \"rbs_priority\": " << r.rbs_priority
        << ", \"rbs_shared\": " << r.rbs_shared
        << ", \"mean_gbr_shortfall_bytes\": "
        << FormatNumber(r.mean_gbr_shortfall_bytes) << '}';
  }
  out << "],\n\"players\": [";
  for (std::size_t i = 0; i < players_.size(); ++i) {
    const PlayerSummary& p = players_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"cell\": " << p.cell
        << ", \"client\": " << p.client << ", \"flow\": " << p.flow
        << ", \"avg_bitrate_bps\": " << FormatNumber(p.avg_bitrate_bps)
        << ", \"switches\": " << p.switches << ", \"stalls\": " << p.stalls
        << ", \"stall_s\": " << FormatNumber(p.stall_s)
        << ", \"qoe\": " << FormatNumber(p.qoe)
        << ", \"segments\": " << p.segments << '}';
  }
  out << "]\n}\n";
}

bool BaiTraceSink::ExportJson(const std::string& path,
                              const MetricsRegistry* registry,
                              const RunHealthMonitor* health,
                              const QoeAnalytics* qoe) const {
  std::ofstream out(path);
  if (!out.is_open()) return false;
  WriteJson(out, registry, health, qoe);
  return true;
}

}  // namespace flare
