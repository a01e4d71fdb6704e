#include "obs/span_trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <tuple>
#include <utility>

#include "util/logging.h"

namespace flare {
namespace {

/// Microsecond timestamps printed as fixed-point with ns precision —
/// %.6g would collapse distinct timestamps past 100 s of simulated time.
std::string FormatMicros(double us) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", us);
  std::string s(buf);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

const char* LaneName(int lane) {
  switch (lane) {
    case kLaneControl:
      return "control";
    case kLaneMac:
      return "mac";
    case kLanePlayer:
      return "player";
    default:
      return "lane";
  }
}

std::string ProcessName(int pid) {
  if (pid == 0) return "main";
  return "cell" + std::to_string(pid - 1);
}

std::int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void WriteCommonFields(std::ostream& out, const TraceEvent& e) {
  out << "\"ts\":" << FormatMicros(e.ts_us) << ",\"pid\":" << e.pid
      << ",\"tid\":" << e.tid;
}

}  // namespace

std::string JsonQuote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void SpanTracer::CompleteSpan(int lane, const char* cat, const char* name,
                              double ts_us, double dur_us, std::string args) {
  TraceEvent e;
  e.ts_us = ts_us;
  e.dur_us = deterministic_ ? 0.0 : dur_us;
  e.ph = 'X';
  e.pid = pid_;
  e.tid = lane;
  e.cat = cat;
  e.name = name;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void SpanTracer::Instant(int lane, const char* cat, const char* name,
                         double ts_us, std::string args) {
  TraceEvent e;
  e.ts_us = ts_us;
  e.ph = 'i';
  e.pid = pid_;
  e.tid = lane;
  e.cat = cat;
  e.name = name;
  e.args = std::move(args);
  events_.push_back(std::move(e));
}

void SpanTracer::Counter(int lane, const char* name, double ts_us,
                         double value) {
  TraceEvent e;
  e.ts_us = ts_us;
  e.ph = 'C';
  e.pid = pid_;
  e.tid = lane;
  e.cat = "counter";
  e.name = name;
  e.value = value;
  events_.push_back(std::move(e));
}

void SpanTracer::AbsorbShard(const SpanTracer& shard) {
  events_.insert(events_.end(), shard.events_.begin(), shard.events_.end());
}

void SpanTracer::SortMergedEvents() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return std::tie(a.ts_us, a.pid, a.tid) <
                            std::tie(b.ts_us, b.pid, b.tid);
                   });
}

void SpanTracer::WriteJson(std::ostream& out) const {
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };

  // Metadata first: name each process (cell) and lane so Perfetto shows
  // "cell0 / control" instead of bare pid/tid numbers.
  std::set<int> pids;
  std::set<std::pair<int, int>> lanes;
  for (const TraceEvent& e : events_) {
    pids.insert(e.pid);
    lanes.insert({e.pid, e.tid});
  }
  for (int pid : pids) {
    sep();
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":" << JsonQuote(ProcessName(pid))
        << "}}";
  }
  for (const auto& [pid, tid] : lanes) {
    sep();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"args\":{\"name\":"
        << JsonQuote(LaneName(tid)) << "}}";
  }

  for (const TraceEvent& e : events_) {
    sep();
    out << "{\"name\":" << JsonQuote(e.name) << ",\"cat\":" << JsonQuote(e.cat)
        << ",\"ph\":\"" << e.ph << "\",";
    WriteCommonFields(out, e);
    switch (e.ph) {
      case 'X':
        out << ",\"dur\":" << FormatMicros(e.dur_us);
        if (!e.args.empty()) out << ",\"args\":" << e.args;
        break;
      case 'i':
        out << ",\"s\":\"t\"";
        if (!e.args.empty()) out << ",\"args\":" << e.args;
        break;
      case 'C':
        out << ",\"args\":{\"value\":" << FormatMicros(e.value) << "}";
        break;
      default:
        break;
    }
    out << "}";
  }
  out << "]}\n";
}

bool SpanTracer::ExportJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out.good()) {
    FLOG_WARN << "SpanTracer: cannot open " << path;
    return false;
  }
  WriteJson(out);
  out.flush();
  if (!out.good()) {
    FLOG_WARN << "SpanTracer: short write to " << path;
    return false;
  }
  return true;
}

SpanScope::SpanScope(SpanTracer* tracer, int lane, const char* cat,
                     const char* name)
    : tracer_(tracer), lane_(lane), cat_(cat), name_(name) {
  if (tracer_ == nullptr) return;
  begin_ts_us_ = tracer_->now_us();
  if (!tracer_->deterministic()) wall_begin_ns_ = SteadyNowNs();
}

void SpanScope::Close() {
  if (tracer_ == nullptr) return;
  double dur_us = 0.0;
  if (!tracer_->deterministic()) {
    dur_us = static_cast<double>(SteadyNowNs() - wall_begin_ns_) / 1000.0;
  }
  tracer_->CompleteSpan(lane_, cat_, name_, begin_ts_us_, dur_us,
                        std::move(args_));
  tracer_ = nullptr;
}

}  // namespace flare
