#include "obs/qoe_analytics.h"

#include <cmath>
#include <fstream>
#include <ostream>

#include "util/csv.h"
#include "util/stats.h"

namespace flare {
namespace {

/// Mean of a vector; 0 when empty.
double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

}  // namespace

const char* QoeSessionOriginName(QoeSessionOrigin origin) {
  switch (origin) {
    case QoeSessionOrigin::kStaticVideo: return "static";
    case QoeSessionOrigin::kConventional: return "conventional";
    case QoeSessionOrigin::kDynamicVideo: return "dynamic";
  }
  return "unknown";
}

double QoeSessionStats::AvgBitrateBps() const {
  if (segments == 0) return 0.0;
  return bitrate_sum_bps / static_cast<double>(segments);
}

double QoeSessionStats::StallRatio() const {
  const double denom = played_s + stall_s;
  if (denom <= 0.0) return 0.0;
  return stall_s / denom;
}

double QoeSessionStats::Qoe(const QoeEngineWeights& weights) const {
  // Mirrors has/metrics.h QoeScore term for term (same summation order, so
  // the scenario cross-check agrees to fp noise).
  if (segments == 0) return 0.0;
  const double k = static_cast<double>(segments);
  const double playtime_s = played_s + stall_s;
  const double stall_fraction = playtime_s > 0.0 ? stall_s / playtime_s : 0.0;
  return (quality_sum - weights.lambda_switch * switch_magnitude_sum) / k -
         weights.mu_rebuffer * stall_fraction;
}

QoeAnalytics::QoeAnalytics(QoeEngineWeights weights) : weights_(weights) {}

QoeSessionStats* QoeAnalytics::Session(int session) {
  QoeSessionStats& stats = sessions_[{cell_, session}];
  stats.cell = cell_;
  stats.session = session;
  return &stats;
}

void QoeAnalytics::StartSession(int session, FlowId flow, double t_s,
                                QoeSessionOrigin origin) {
  QoeSessionStats* s = Session(session);
  s->flow = flow;
  s->origin = origin;
  s->start_s = t_s;
}

void QoeAnalytics::OnPlayoutStart(int session, double t_s) {
  QoeSessionStats* s = Session(session);
  if (s->startup_delay_s < 0.0) s->startup_delay_s = t_s - s->start_s;
}

void QoeAnalytics::OnSegment(int session, double bitrate_bps,
                             double duration_s) {
  QoeSessionStats* s = Session(session);
  const double q = bitrate_bps / 1e6;
  if (s->segments > 0 && bitrate_bps != s->last_bitrate_bps) {
    ++s->switches;
    s->switch_magnitude_sum += std::abs(q - s->last_bitrate_bps / 1e6);
  }
  ++s->segments;
  s->bitrate_sum_bps += bitrate_bps;
  s->quality_sum += q;
  s->last_bitrate_bps = bitrate_bps;
  s->media_s += duration_s;
}

void QoeAnalytics::OnStallBegin(int session, double t_s) {
  QoeSessionStats* s = Session(session);
  if (s->active_stall_begin_s >= 0.0) return;  // already stalled
  ++s->stalls;
  s->active_stall_begin_s = t_s;
}

void QoeAnalytics::OnStallEnd(int session, double t_s) {
  QoeSessionStats* s = Session(session);
  if (s->active_stall_begin_s < 0.0) return;
  if (t_s > s->active_stall_begin_s) {
    s->stall_s += t_s - s->active_stall_begin_s;
  }
  s->active_stall_begin_s = -1.0;
}

void QoeAnalytics::EndSession(int session, double t_s, double played_s) {
  QoeSessionStats* s = Session(session);
  OnStallEnd(session, t_s);  // account an open stall up to the end
  s->ended = true;
  s->end_s = t_s;
  s->played_s = played_s;
}

void QoeAnalytics::OnAdmissionVerdict(bool admitted) {
  CellAggregates& agg = cells_[cell_];
  if (admitted) {
    ++agg.admitted;
  } else {
    ++agg.blocked;
  }
}

void QoeAnalytics::OnRungChange(const char* cause) {
  ++cells_[cell_].rung_change_causes[cause != nullptr ? cause : "unknown"];
}

void QoeAnalytics::AbsorbShard(const QoeAnalytics& shard, int cell) {
  for (const auto& [key, stats] : shard.sessions_) {
    QoeSessionStats copy = stats;
    copy.cell = cell;
    sessions_[{cell, key.second}] = copy;
  }
  // The shard recorded its aggregates under its local tag.
  for (const auto& entry : shard.cells_) cells_[cell].Add(entry.second);
}

void QoeAnalytics::CellAggregates::Add(const CellAggregates& other) {
  admitted += other.admitted;
  blocked += other.blocked;
  for (const auto& [cause, count] : other.rung_change_causes) {
    rung_change_causes[cause] += count;
  }
}

QoeAnalytics::CellAggregates QoeAnalytics::Totals() const {
  CellAggregates total;
  for (const auto& entry : cells_) total.Add(entry.second);
  return total;
}

std::vector<const QoeSessionStats*> QoeAnalytics::AllSessions() const {
  std::vector<const QoeSessionStats*> all;
  all.reserve(sessions_.size());
  for (const auto& entry : sessions_) all.push_back(&entry.second);
  return all;
}

QoeLiveSummary QoeAnalytics::Summarize(
    const std::vector<const QoeSessionStats*>& sessions,
    const CellAggregates& agg, std::vector<double>* dynamic_qoe) const {
  // Fairness / averages are over sessions that played at least one
  // segment; blocked-then-gone dynamic sessions only show up in the
  // admitted/blocked counters.
  QoeLiveSummary sum;
  sum.sessions = sessions.size();
  std::vector<double> bitrates;
  double stall_s = 0.0;
  double playtime_s = 0.0;
  double qoe_sum = 0.0;
  for (const QoeSessionStats* s : sessions) {
    sum.stalls += s->stalls;
    const bool dynamic = s->origin == QoeSessionOrigin::kDynamicVideo;
    const double qoe = s->segments == 0 ? 0.0 : s->Qoe(weights_);
    if (dynamic && dynamic_qoe != nullptr) dynamic_qoe->push_back(qoe);
    if (s->segments == 0) continue;
    ++sum.played;
    bitrates.push_back(s->AvgBitrateBps());
    sum.switches += s->switches;
    stall_s += s->stall_s;
    playtime_s += s->played_s + s->stall_s;
    qoe_sum += qoe;
  }
  sum.avg_bitrate_bps = Mean(bitrates);
  // Jain of nothing stays the "perfectly fair" 1.0.
  sum.jain_avg_bitrate = JainIndex(bitrates);
  sum.avg_qoe =
      sum.played > 0 ? qoe_sum / static_cast<double>(sum.played) : 0.0;
  sum.stall_ratio = playtime_s > 0.0 ? stall_s / playtime_s : 0.0;
  sum.admitted = agg.admitted;
  sum.blocked = agg.blocked;
  const std::uint64_t arrivals = sum.admitted + sum.blocked;
  sum.blocking_probability =
      arrivals > 0 ? static_cast<double>(sum.blocked) /
                         static_cast<double>(arrivals)
                   : 0.0;
  return sum;
}

QoeLiveSummary QoeAnalytics::LiveSummary() const {
  return Summarize(AllSessions(), Totals(), nullptr);
}

const QoeSessionStats* QoeAnalytics::FindSession(int cell, int session) const {
  const auto it = sessions_.find({cell, session});
  return it == sessions_.end() ? nullptr : &it->second;
}

std::uint64_t QoeAnalytics::admitted() const { return Totals().admitted; }

std::uint64_t QoeAnalytics::blocked() const { return Totals().blocked; }

void QoeAnalytics::WriteAggregateJson(
    std::ostream& out, const std::vector<const QoeSessionStats*>& sessions,
    const CellAggregates& agg) const {
  std::vector<double> dynamic_qoe;
  const QoeLiveSummary sum = Summarize(sessions, agg, &dynamic_qoe);
  const double played = static_cast<double>(sum.played);
  out << "\"sessions\": " << sum.sessions
      << ", \"played_sessions\": " << sum.played
      << ", \"avg_bitrate_bps\": " << JsonNumber(sum.avg_bitrate_bps)
      << ", \"jain_avg_bitrate\": " << JsonNumber(sum.jain_avg_bitrate)
      << ", \"avg_switches\": "
      << JsonNumber(sum.played > 0
                        ? static_cast<double>(sum.switches) / played
                        : 0.0)
      << ", \"stall_ratio\": " << JsonNumber(sum.stall_ratio)
      << ", \"avg_qoe\": " << JsonNumber(sum.avg_qoe)
      << ", \"avg_admitted_qoe\": " << JsonNumber(Mean(dynamic_qoe))
      << ", \"admitted\": " << sum.admitted
      << ", \"blocked\": " << sum.blocked << ", \"blocking_probability\": "
      << JsonNumber(sum.blocking_probability)
      << ", \"rung_change_causes\": {";
  bool first = true;
  for (const auto& [cause, count] : agg.rung_change_causes) {
    if (!first) out << ", ";
    first = false;
    out << '"' << cause << "\": " << count;
  }
  out << '}';
}

void QoeAnalytics::WriteJson(std::ostream& out) const {
  out << "{\"weights\": {\"lambda_switch\": "
      << JsonNumber(weights_.lambda_switch)
      << ", \"mu_rebuffer\": " << JsonNumber(weights_.mu_rebuffer) << "},\n";

  out << "\"sessions\": [";
  bool first = true;
  for (const auto& [key, s] : sessions_) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"cell\": " << s.cell << ", \"session\": " << s.session
        << ", \"flow\": ";
    if (s.flow == kInvalidFlow) {
      out << "null";
    } else {
      out << s.flow;
    }
    out << ", \"origin\": \"" << QoeSessionOriginName(s.origin) << '"'
        << ", \"start_s\": " << JsonNumber(s.start_s)
        << ", \"end_s\": " << JsonNumber(s.ended ? s.end_s : s.start_s)
        << ", \"segments\": " << s.segments
        << ", \"media_s\": " << JsonNumber(s.media_s)
        << ", \"avg_bitrate_bps\": " << JsonNumber(s.AvgBitrateBps())
        << ", \"switches\": " << s.switches << ", \"stalls\": " << s.stalls
        << ", \"stall_s\": " << JsonNumber(s.stall_s)
        << ", \"stall_ratio\": " << JsonNumber(s.StallRatio())
        << ", \"startup_delay_s\": ";
    if (s.startup_delay_s < 0.0) {
      out << "null";
    } else {
      out << JsonNumber(s.startup_delay_s);
    }
    out << ", \"qoe\": ";
    if (s.segments == 0) {
      out << "null";
    } else {
      out << JsonNumber(s.Qoe(weights_));
    }
    out << '}';
  }
  out << "\n],\n";

  // Per-cell aggregates: the union of cells seen by sessions and by
  // cell-level feeds (a cell can have verdicts but no surviving session).
  std::map<int, std::vector<const QoeSessionStats*>> by_cell;
  for (const auto& [key, s] : sessions_) by_cell[key.first].push_back(&s);
  std::map<int, CellAggregates> cells = cells_;
  for (const auto& entry : by_cell) cells.try_emplace(entry.first);

  out << "\"cells\": [";
  first = true;
  for (const auto& [cell, agg] : cells) {
    if (!first) out << ",";
    first = false;
    out << "\n  {\"cell\": " << cell << ", ";
    static const std::vector<const QoeSessionStats*> kNone;
    const auto it = by_cell.find(cell);
    WriteAggregateJson(out, it == by_cell.end() ? kNone : it->second, agg);
    out << '}';
  }
  out << "\n],\n";

  out << "\"summary\": {";
  WriteAggregateJson(out, AllSessions(), Totals());
  out << "}}";
}

bool QoeAnalytics::ExportCsv(const std::string& path) const {
  CsvWriter csv(path,
                {"cell", "session", "flow", "origin", "start_s", "end_s",
                 "segments", "media_s", "avg_bitrate_bps", "switches",
                 "stalls", "stall_s", "stall_ratio", "startup_delay_s",
                 "qoe"});
  if (!csv.ok()) return false;
  for (const auto& [key, s] : sessions_) {
    csv.RawRow({std::to_string(s.cell), std::to_string(s.session),
                s.flow == kInvalidFlow ? "" : std::to_string(s.flow),
                QoeSessionOriginName(s.origin), FormatNumber(s.start_s),
                FormatNumber(s.ended ? s.end_s : s.start_s),
                std::to_string(s.segments), FormatNumber(s.media_s),
                FormatNumber(s.AvgBitrateBps()), std::to_string(s.switches),
                std::to_string(s.stalls), FormatNumber(s.stall_s),
                FormatNumber(s.StallRatio()),
                s.startup_delay_s < 0.0 ? ""
                                        : FormatNumber(s.startup_delay_s),
                s.segments == 0 ? "" : FormatNumber(s.Qoe(weights_))});
  }
  return true;
}

}  // namespace flare
