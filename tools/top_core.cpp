#include "top_core.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/span_trace.h"
#include "util/csv.h"

namespace flare {
namespace {

bool IsSpace(char c) { return c == ' ' || c == '\t'; }

/// Undo OpenMetricsEscapeLabel: \\ -> backslash, \" -> quote, \n ->
/// newline. Unknown escapes keep the escaped character verbatim.
std::string UnescapeLabelValue(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] != '\\' || i + 1 >= text.size()) {
      out.push_back(text[i]);
      continue;
    }
    ++i;
    switch (text[i]) {
      case 'n':
        out.push_back('\n');
        break;
      case '\\':
      case '"':
      default:
        out.push_back(text[i]);
        break;
    }
  }
  return out;
}

bool ParseLine(const std::string& line, std::size_t line_no,
               PromSample* sample, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) {
      *error = "line " + std::to_string(line_no) + ": " + why;
    }
    return false;
  };
  std::size_t i = 0;
  while (i < line.size() &&
         (std::isalnum(static_cast<unsigned char>(line[i])) != 0 ||
          line[i] == '_' || line[i] == ':')) {
    ++i;
  }
  if (i == 0) return fail("expected metric name");
  sample->name = line.substr(0, i);
  if (i < line.size() && line[i] == '{') {
    ++i;
    while (i < line.size() && line[i] != '}') {
      const std::size_t eq = line.find('=', i);
      if (eq == std::string::npos) return fail("label without '='");
      const std::string label = line.substr(i, eq - i);
      if (eq + 1 >= line.size() || line[eq + 1] != '"') {
        return fail("label value must be quoted");
      }
      std::size_t end = eq + 2;
      std::string raw;
      while (end < line.size() && line[end] != '"') {
        if (line[end] == '\\' && end + 1 < line.size()) {
          raw.push_back(line[end]);
          ++end;
        }
        raw.push_back(line[end]);
        ++end;
      }
      if (end >= line.size()) return fail("unterminated label value");
      sample->labels[label] = UnescapeLabelValue(raw);
      i = end + 1;
      if (i < line.size() && line[i] == ',') ++i;
    }
    if (i >= line.size()) return fail("unterminated label set");
    ++i;  // consume '}'
  }
  while (i < line.size() && IsSpace(line[i])) ++i;
  if (i >= line.size()) return fail("missing sample value");
  char* end = nullptr;
  sample->value = std::strtod(line.c_str() + i, &end);
  if (end == line.c_str() + i) return fail("bad sample value");
  return true;
}

}  // namespace

bool ParsePrometheusText(const std::string& text,
                         std::vector<PromSample>* out, std::string* error) {
  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::size_t start = 0;
    while (start < line.size() && IsSpace(line[start])) ++start;
    if (start >= line.size() || line[start] == '#') continue;
    PromSample sample;
    if (!ParseLine(line.substr(start), line_no, &sample, error)) {
      return false;
    }
    out->push_back(std::move(sample));
  }
  return true;
}

TopSnapshot BuildTopSnapshot(const std::vector<PromSample>& samples,
                             const JsonValue* healthz) {
  TopSnapshot snap;
  if (healthz != nullptr && healthz->is_object()) {
    const auto str = [&](const char* key, std::string* out) {
      const JsonValue* v = healthz->Find(key);
      if (v != nullptr && v->is_string()) *out = v->AsString();
    };
    const auto num = [&](const char* key, double* out) {
      const JsonValue* v = healthz->Find(key);
      if (v != nullptr && v->is_number()) *out = v->AsNumber();
    };
    str("status", &snap.status);
    str("scenario", &snap.scenario);
    const JsonValue* healthy = healthz->Find("healthy");
    if (healthy != nullptr && healthy->is_bool()) {
      snap.healthy = healthy->AsBool();
    }
    num("sim_time_s", &snap.sim_time_s);
    num("duration_s", &snap.duration_s);
    num("progress_pct", &snap.progress_pct);
    num("epochs", &snap.epochs);
    num("epoch_rate_hz", &snap.epoch_rate_hz);
    num("sim_speedup", &snap.sim_speedup);
    num("warnings", &snap.warnings);
    double cells = 0.0;
    double workers = 0.0;
    num("cells", &cells);
    num("workers", &workers);
    snap.cells = static_cast<int>(cells);
    snap.workers = static_cast<int>(workers);
  }

  // Per-cell rows keyed by the cell="N" label the exposition renderer
  // extracts from "cell<N>."-prefixed metric names.
  std::map<int, CellRow> rows;
  const auto row = [&rows](const std::string& cell) -> CellRow* {
    const int id = std::atoi(cell.c_str());
    CellRow& r = rows[id];
    r.cell = id;
    return &r;
  };
  for (const PromSample& s : samples) {
    const auto cell_label = s.labels.find("cell");
    if (cell_label != s.labels.end()) {
      CellRow* r = row(cell_label->second);
      if (s.name == "flare_qoe_sessions") {
        r->sessions = s.value;
      } else if (s.name == "flare_qoe_played_sessions") {
        r->played = s.value;
      } else if (s.name == "flare_qoe_avg_bitrate_bps") {
        r->avg_bitrate_bps = s.value;
      } else if (s.name == "flare_qoe_avg_qoe") {
        r->avg_qoe = s.value;
      } else if (s.name == "flare_qoe_jain_avg_bitrate") {
        r->jain = s.value;
      } else if (s.name == "flare_qoe_stalls") {
        r->stalls = s.value;
      } else if (s.name == "flare_qoe_stall_ratio") {
        r->stall_ratio = s.value;
      } else if (s.name == "flare_qoe_blocking_probability") {
        r->blocking_probability = s.value;
      } else if (s.name == "flare_health_healthy") {
        r->healthy = s.value != 0.0;
      }
      continue;
    }
    if (s.name == "flare_telemetry_events_published_total") {
      snap.events_published = s.value;
    } else if (s.name == "flare_telemetry_events_dropped_total") {
      snap.events_dropped = s.value;
    } else if (s.name == "flare_telemetry_scrapes_total") {
      snap.scrapes = s.value;
    } else if (s.name == "flare_run_info" && snap.scenario.empty()) {
      const auto scenario = s.labels.find("scenario");
      if (scenario != s.labels.end()) snap.scenario = scenario->second;
    }
  }
  snap.rows.reserve(rows.size());
  for (const auto& [id, r] : rows) snap.rows.push_back(r);

  // Control-plane stage quantiles (flare_oneapid with tracing on). The
  // pipeline order is fixed here rather than taken from sample order so
  // the table always reads in request-lifecycle order; stages the daemon
  // has not observed yet are simply absent.
  static const char* const kStageOrder[] = {
      "recv", "parse", "admit", "queue_wait", "solve", "encode",
      "outbox_drain"};
  for (const char* stage : kStageOrder) {
    TopSnapshot::StageRow row_out;
    row_out.stage = stage;
    bool have = false;
    const std::string prefix = std::string("flare_svc_oneapi_stage_") + stage;
    for (const PromSample& s : samples) {
      if (s.name == prefix + "_p50_us") {
        row_out.p50_us = s.value;
        have = true;
      } else if (s.name == prefix + "_p95_us") {
        row_out.p95_us = s.value;
        have = true;
      } else if (s.name == prefix + "_p99_us") {
        row_out.p99_us = s.value;
        have = true;
      }
    }
    if (have) snap.stage_rows.push_back(std::move(row_out));
  }
  return snap;
}

std::string RenderTopTable(const TopSnapshot& snap) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "flare_top — %s  [%s]\n",
                snap.scenario.empty() ? "(no scenario)"
                                      : snap.scenario.c_str(),
                snap.status.c_str());
  out += line;
  std::snprintf(line, sizeof(line),
                "sim %.1f / %.1f s (%.1f%%)   epochs %.0f @ %.1f/s   "
                "speedup %.1fx   cells %d   workers %d\n",
                snap.sim_time_s, snap.duration_s, snap.progress_pct,
                snap.epochs, snap.epoch_rate_hz, snap.sim_speedup,
                snap.cells, snap.workers);
  out += line;
  std::snprintf(line, sizeof(line),
                "warnings %.0f   events published %.0f / dropped %.0f   "
                "scrapes %.0f\n\n",
                snap.warnings, snap.events_published, snap.events_dropped,
                snap.scrapes);
  out += line;
  out +=
      "cell  sessions  played    Mbps     QoE    Jain  stalls  block%  "
      "health\n";
  for (const CellRow& r : snap.rows) {
    std::snprintf(line, sizeof(line),
                  "%4d  %8.0f  %6.0f  %6.2f  %6.2f  %6.3f  %6.0f  %6.1f"
                  "  %s\n",
                  r.cell, r.sessions, r.played, r.avg_bitrate_bps / 1e6,
                  r.avg_qoe, r.jain, r.stalls,
                  r.blocking_probability * 100.0,
                  r.healthy ? "ok" : "ALARM");
    out += line;
  }
  if (snap.rows.empty()) out += "(no per-cell samples yet)\n";
  if (!snap.stage_rows.empty()) {
    out += "\ncontrol plane (request stage latency, us)\n";
    out += "stage            p50       p95       p99\n";
    for (const TopSnapshot::StageRow& r : snap.stage_rows) {
      std::snprintf(line, sizeof(line), "%-12s %9.1f %9.1f %9.1f\n",
                    r.stage.c_str(), r.p50_us, r.p95_us, r.p99_us);
      out += line;
    }
  }
  return out;
}

std::string RenderTopJson(const TopSnapshot& snap) {
  std::ostringstream out;
  out << "{\"status\": " << JsonQuote(snap.status)
      << ", \"healthy\": " << (snap.healthy ? "true" : "false")
      << ", \"scenario\": " << JsonQuote(snap.scenario)
      << ", \"sim_time_s\": " << JsonNumber(snap.sim_time_s)
      << ", \"duration_s\": " << JsonNumber(snap.duration_s)
      << ", \"progress_pct\": " << JsonNumber(snap.progress_pct)
      << ", \"epochs\": " << JsonNumber(snap.epochs)
      << ", \"epoch_rate_hz\": " << JsonNumber(snap.epoch_rate_hz)
      << ", \"sim_speedup\": " << JsonNumber(snap.sim_speedup)
      << ", \"cells\": " << snap.cells << ", \"workers\": " << snap.workers
      << ", \"warnings\": " << JsonNumber(snap.warnings)
      << ", \"events_published\": " << JsonNumber(snap.events_published)
      << ", \"events_dropped\": " << JsonNumber(snap.events_dropped)
      << ", \"scrapes\": " << JsonNumber(snap.scrapes)
      << ", \"cell_rows\": [";
  for (std::size_t i = 0; i < snap.rows.size(); ++i) {
    const CellRow& r = snap.rows[i];
    if (i > 0) out << ", ";
    out << "{\"cell\": " << r.cell
        << ", \"sessions\": " << JsonNumber(r.sessions)
        << ", \"played\": " << JsonNumber(r.played)
        << ", \"avg_bitrate_bps\": " << JsonNumber(r.avg_bitrate_bps)
        << ", \"avg_qoe\": " << JsonNumber(r.avg_qoe)
        << ", \"jain\": " << JsonNumber(r.jain)
        << ", \"stalls\": " << JsonNumber(r.stalls)
        << ", \"stall_ratio\": " << JsonNumber(r.stall_ratio)
        << ", \"blocking_probability\": "
        << JsonNumber(r.blocking_probability)
        << ", \"healthy\": " << (r.healthy ? "true" : "false") << "}";
  }
  out << "]";
  if (!snap.stage_rows.empty()) {
    out << ", \"stage_rows\": [";
    for (std::size_t i = 0; i < snap.stage_rows.size(); ++i) {
      const TopSnapshot::StageRow& r = snap.stage_rows[i];
      if (i > 0) out << ", ";
      out << "{\"stage\": " << JsonQuote(r.stage)
          << ", \"p50_us\": " << JsonNumber(r.p50_us)
          << ", \"p95_us\": " << JsonNumber(r.p95_us)
          << ", \"p99_us\": " << JsonNumber(r.p99_us) << "}";
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

}  // namespace flare
