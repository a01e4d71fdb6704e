#include "trace_core.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "util/stats.h"

namespace flare {
namespace {

/// Stage keys re-read from server request-span args, timeline order plus
/// the end-to-end total. "admit" is attributed on its own admit_request
/// spans (client_info, not per-assignment), so it has no column here.
const char* const kStageKeys[] = {"recv_us",   "parse_us",  "queue_wait_us",
                                  "solve_us",  "encode_us", "outbox_drain_us",
                                  "total_us"};
const char* const kStageLabels[] = {"recv",   "parse",  "queue_wait",
                                    "solve",  "encode", "outbox_drain",
                                    "total"};
constexpr int kNumStages = 7;

double NumberField(const JsonValue& args, const char* key) {
  const JsonValue* v = args.Find(key);
  return (v != nullptr && v->is_number()) ? v->AsNumber() : 0.0;
}

std::string StringField(const JsonValue& args, const char* key) {
  const JsonValue* v = args.Find(key);
  return (v != nullptr && v->is_string()) ? v->AsString() : std::string();
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Compact number rendering for the re-emitted trace: integers stay
/// integers, fractions keep µs precision to the ns without trailing zeros
/// (matches SpanTracer's own FormatMicros style).
std::string FormatNumber(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  std::string s = buf;
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

/// Re-serialize a parsed JsonValue (args payloads in the merged trace).
void WriteJsonValue(std::ostream& out, const JsonValue& v) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      out << "null";
      break;
    case JsonValue::Kind::kBool:
      out << (v.AsBool() ? "true" : "false");
      break;
    case JsonValue::Kind::kNumber:
      out << FormatNumber(v.AsNumber());
      break;
    case JsonValue::Kind::kString:
      out << '"' << EscapeJson(v.AsString()) << '"';
      break;
    case JsonValue::Kind::kArray: {
      out << '[';
      bool first = true;
      for (const JsonValue& item : v.items()) {
        if (!first) out << ',';
        first = false;
        WriteJsonValue(out, item);
      }
      out << ']';
      break;
    }
    case JsonValue::Kind::kObject: {
      out << '{';
      bool first = true;
      for (const auto& member : v.members()) {
        if (!first) out << ',';
        first = false;
        out << '"' << EscapeJson(member.first) << "\":";
        WriteJsonValue(out, member.second);
      }
      out << '}';
      break;
    }
  }
}

const JsonValue* TraceEvents(const JsonValue& doc) {
  const JsonValue* events = doc.Find("traceEvents");
  return (events != nullptr && events->is_array()) ? events : nullptr;
}

/// Emit one event from a source doc into the merged stream, shifting
/// non-metadata timestamps by `shift_us`. process_name metadata is
/// dropped (the merged trace names the processes itself).
void WriteShiftedEvent(std::ostream& out, const JsonValue& event,
                       double shift_us, bool* first) {
  const JsonValue* ph = event.Find("ph");
  const std::string phase = ph != nullptr ? ph->AsString() : std::string();
  if (phase == "M") {
    const JsonValue* name = event.Find("name");
    if (name != nullptr && name->AsString() == "process_name") return;
  }
  if (!*first) out << ",\n";
  *first = false;
  out << "  {";
  bool first_member = true;
  for (const auto& member : event.members()) {
    if (!first_member) out << ',';
    first_member = false;
    out << '"' << EscapeJson(member.first) << "\":";
    if (member.first == "ts" && phase != "M" && member.second.is_number()) {
      out << FormatNumber(member.second.AsNumber() + shift_us);
    } else {
      WriteJsonValue(out, member.second);
    }
  }
  out << '}';
}

void WriteProcessMeta(std::ostream& out, int pid, const char* name,
                      bool* first) {
  if (!*first) out << ",\n";
  *first = false;
  out << "  {\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" << pid
      << ",\"tid\":0,\"args\":{\"name\":\"" << name << "\"}}";
}

}  // namespace

bool LoadTraceDoc(const std::string& path, TraceDoc* out, std::string* error) {
  out->spans.clear();
  if (!ParseJsonFile(path, &out->raw, error)) return false;
  const JsonValue* events = TraceEvents(out->raw);
  if (events == nullptr) {
    if (error != nullptr) *error = path + ": no traceEvents array";
    return false;
  }
  for (const JsonValue& event : events->items()) {
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr || ph->AsString() != "X") continue;
    TraceSpanRecord span;
    span.name = StringField(event, "name");
    span.cat = StringField(event, "cat");
    span.ts_us = NumberField(event, "ts");
    span.dur_us = NumberField(event, "dur");
    span.pid = static_cast<int>(NumberField(event, "pid"));
    span.tid = static_cast<int>(NumberField(event, "tid"));
    const JsonValue* args = event.Find("args");
    if (args != nullptr && args->is_object()) {
      span.trace_hex = StringField(*args, "trace");
      span.cause = StringField(*args, "cause");
      span.recv_us = NumberField(*args, "recv_us");
      span.parse_us = NumberField(*args, "parse_us");
      span.queue_wait_us = NumberField(*args, "queue_wait_us");
      span.solve_us = NumberField(*args, "solve_us");
      span.encode_us = NumberField(*args, "encode_us");
      span.outbox_drain_us = NumberField(*args, "outbox_drain_us");
      span.total_us = NumberField(*args, "total_us");
      span.t0_us = NumberField(*args, "t0_us");
      span.t3_us = NumberField(*args, "t3_us");
      span.srx_us = NumberField(*args, "srx_us");
      span.stx_us = NumberField(*args, "stx_us");
      span.turnaround_us = NumberField(*args, "turnaround_us");
    }
    span.is_server_request = span.name == "request" && span.cat == "svc";
    span.is_client_request = span.name == "request" && span.cat == "client";
    out->spans.push_back(std::move(span));
  }
  return true;
}

ClockOffset EstimateClockOffset(const TraceDoc& client) {
  ClockOffset best;
  for (const TraceSpanRecord& span : client.spans) {
    if (!span.is_client_request) continue;
    // Without echoed server stamps (old daemon / untraced server) there is
    // nothing to align against.
    if (span.srx_us == 0.0 && span.stx_us == 0.0) continue;
    const double rtt_us =
        (span.t3_us - span.t0_us) - (span.stx_us - span.srx_us);
    if (rtt_us < 0.0) continue;
    ++best.samples;
    if (!best.valid || rtt_us < best.min_rtt_us) {
      best.valid = true;
      best.min_rtt_us = rtt_us;
      best.offset_us =
          ((span.srx_us - span.t0_us) + (span.stx_us - span.t3_us)) / 2.0;
    }
  }
  return best;
}

TraceAnalysis AnalyzeTraces(const TraceDoc& server, const TraceDoc& client) {
  TraceAnalysis analysis;
  analysis.offset = EstimateClockOffset(client);

  std::map<std::string, const TraceSpanRecord*> server_by_trace;
  std::vector<double> stage_samples[kNumStages];
  for (const TraceSpanRecord& span : server.spans) {
    if (!span.is_server_request) continue;
    ++analysis.server_requests;
    const double phases[kNumStages] = {
        span.recv_us,   span.parse_us,  span.queue_wait_us, span.solve_us,
        span.encode_us, span.outbox_drain_us, span.total_us};
    for (int i = 0; i < kNumStages; ++i) {
      stage_samples[i].push_back(phases[i]);
      if (phases[i] < 0.0) ++analysis.phase_violations;
    }
    if (span.trace_hex.empty() ||
        !server_by_trace.emplace(span.trace_hex, &span).second) {
      ++analysis.duplicate_trace_ids;
    }
  }

  std::set<std::string> matched_ids;
  for (const TraceSpanRecord& span : client.spans) {
    if (!span.is_client_request) continue;
    ++analysis.client_requests;
    if (span.turnaround_us < 0.0) ++analysis.phase_violations;
    const auto it = server_by_trace.find(span.trace_hex);
    if (it == server_by_trace.end()) {
      ++analysis.orphan_client;
      continue;
    }
    ++analysis.matched;
    matched_ids.insert(span.trace_hex);
    // The server-side pipeline is strictly inside the client-observed
    // turnaround; allow 5% + 200µs for the two clocks ticking at slightly
    // different rates and coarse scheduler stamps.
    const TraceSpanRecord& srv = *it->second;
    const double server_sum = srv.recv_us + srv.parse_us + srv.queue_wait_us +
                              srv.solve_us + srv.encode_us +
                              srv.outbox_drain_us;
    if (server_sum > span.turnaround_us * 1.05 + 200.0) {
      ++analysis.sum_exceeds_turnaround;
    }
  }
  for (const auto& entry : server_by_trace) {
    if (matched_ids.count(entry.first) == 0) ++analysis.orphan_server;
  }

  for (int i = 0; i < kNumStages; ++i) {
    std::sort(stage_samples[i].begin(), stage_samples[i].end());
    StageStats stats;
    stats.stage = kStageLabels[i];
    stats.count = stage_samples[i].size();
    stats.p50_us = NearestRankQuantile(stage_samples[i], 0.50);
    stats.p95_us = NearestRankQuantile(stage_samples[i], 0.95);
    stats.p99_us = NearestRankQuantile(stage_samples[i], 0.99);
    stats.max_us = stage_samples[i].empty() ? 0.0 : stage_samples[i].back();
    analysis.stages.push_back(std::move(stats));
  }

  if (analysis.matched == 0) {
    analysis.problems.push_back("no matched request spans");
  }
  if (analysis.orphan_client > 0) {
    analysis.problems.push_back(
        "client spans whose trace id the server never recorded: " +
        std::to_string(analysis.orphan_client));
  }
  if (analysis.duplicate_trace_ids > 0) {
    analysis.problems.push_back("duplicate/empty server trace ids: " +
                                std::to_string(analysis.duplicate_trace_ids));
  }
  if (analysis.phase_violations > 0) {
    analysis.problems.push_back("negative phase durations: " +
                                std::to_string(analysis.phase_violations));
  }
  if (analysis.sum_exceeds_turnaround > 0) {
    analysis.problems.push_back(
        "server phase sums exceeding client turnaround: " +
        std::to_string(analysis.sum_exceeds_turnaround));
  }
  analysis.valid = analysis.problems.empty();
  return analysis;
}

std::string RenderStageTable(const TraceAnalysis& analysis) {
  std::ostringstream out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-14s %8s %10s %10s %10s %10s\n", "stage",
                "count", "p50_us", "p95_us", "p99_us", "max_us");
  out << line;
  for (const StageStats& s : analysis.stages) {
    std::snprintf(line, sizeof(line), "%-14s %8llu %10.1f %10.1f %10.1f %10.1f\n",
                  s.stage.c_str(), static_cast<unsigned long long>(s.count),
                  s.p50_us, s.p95_us, s.p99_us, s.max_us);
    out << line;
  }
  return out.str();
}

void WriteMergedTrace(std::ostream& out, const TraceDoc& server,
                      const TraceDoc& client, double offset_us) {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  WriteProcessMeta(out, 1, "flare_oneapid", &first);
  WriteProcessMeta(out, 2, "flare_loadgen", &first);
  const JsonValue* server_events = TraceEvents(server.raw);
  if (server_events != nullptr) {
    for (const JsonValue& event : server_events->items()) {
      WriteShiftedEvent(out, event, 0.0, &first);
    }
  }
  const JsonValue* client_events = TraceEvents(client.raw);
  if (client_events != nullptr) {
    for (const JsonValue& event : client_events->items()) {
      WriteShiftedEvent(out, event, offset_us, &first);
    }
  }
  out << "\n]}\n";
}

}  // namespace flare
