#include "svc/frame.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

namespace flare {
namespace {

constexpr std::size_t kHeaderBytes = 4;  // u32 LE length

bool KnownType(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kClientInfo) &&
         raw <= static_cast<std::uint8_t>(FrameType::kOverload);
}

// Minimal key=value;key=value split matching the net/messages.h grammar:
// strict, no empty fields, no empty keys. Returns false on malformed input.
bool SplitFields(const std::string& payload,
                 std::map<std::string, std::string>* out) {
  out->clear();
  if (payload.empty()) return true;
  std::size_t start = 0;
  while (start <= payload.size()) {
    std::size_t end = payload.find(';', start);
    if (end == std::string::npos) end = payload.size();
    std::string field = payload.substr(start, end - start);
    std::size_t eq = field.find('=');
    if (field.empty() || eq == std::string::npos || eq == 0) return false;
    (*out)[field.substr(0, eq)] = field.substr(eq + 1);
    start = end + 1;
    if (end == payload.size()) break;
  }
  return true;
}

std::string FormatDouble(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

bool ParseI64(const std::string& text, std::int64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') return false;
  *out = static_cast<std::int64_t>(value);
  return true;
}

bool ParseHex64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = value;
  return true;
}

void AppendTraceTrailer(const TraceContext& trace, std::string* out) {
  char id[17];
  std::snprintf(id, sizeof(id), "%016llx",
                static_cast<unsigned long long>(trace.trace_id));
  out->push_back('\0');
  out->append("trace=");
  out->append(id);
  out->append(";ts=");
  out->append(std::to_string(trace.client_send_us));
  if (trace.server_recv_us != 0 || trace.server_send_us != 0) {
    out->append(";srx=");
    out->append(std::to_string(trace.server_recv_us));
    out->append(";stx=");
    out->append(std::to_string(trace.server_send_us));
  }
}

// Parse the extension block (bytes after the first '\0'). Known keys are
// strict — a frame that claims to carry a trace context but mangles it is
// a protocol violation, same as a mangled length. Everything else
// (unknown keys, field syntax noise, bytes past a second '\0') is the
// forward-compatibility surface: tolerated and flagged.
bool ParseTraceExt(std::string ext, TraceContext* trace, bool* unknown_ext) {
  const std::size_t nul = ext.find('\0');
  if (nul != std::string::npos) {
    ext.resize(nul);
    *unknown_ext = true;
  }
  bool have_trace = false;
  std::size_t start = 0;
  while (start <= ext.size()) {
    std::size_t end = ext.find(';', start);
    if (end == std::string::npos) end = ext.size();
    const std::string field = ext.substr(start, end - start);
    const std::size_t eq = field.find('=');
    if (field.empty() || eq == std::string::npos || eq == 0) {
      if (!field.empty()) *unknown_ext = true;
      start = end + 1;
      if (end == ext.size()) break;
      continue;
    }
    const std::string key = field.substr(0, eq);
    const std::string value = field.substr(eq + 1);
    if (key == "trace") {
      if (!ParseHex64(value, &trace->trace_id)) return false;
      have_trace = true;
    } else if (key == "ts") {
      if (!ParseI64(value, &trace->client_send_us)) return false;
    } else if (key == "srx") {
      if (!ParseI64(value, &trace->server_recv_us)) return false;
    } else if (key == "stx") {
      if (!ParseI64(value, &trace->server_send_us)) return false;
    } else {
      *unknown_ext = true;
    }
    start = end + 1;
    if (end == ext.size()) break;
  }
  return have_trace;
}

}  // namespace

void AppendFrame(FrameType type, std::string_view payload, std::string* out) {
  AppendFrame(type, payload, nullptr, out);
}

void AppendFrame(FrameType type, std::string_view payload,
                 const TraceContext* trace, std::string* out) {
  const std::size_t begin = BeginFrame(out);
  out->append(payload.data(), payload.size());
  EndFrame(type, trace, begin, out);
}

std::size_t BeginFrame(std::string* out) {
  const std::size_t begin = out->size();
  out->append(kHeaderBytes + 1, '\0');
  return begin;
}

void EndFrame(FrameType type, const TraceContext* trace, std::size_t begin,
              std::string* out) {
  if (trace != nullptr) AppendTraceTrailer(*trace, out);
  const std::size_t body = out->size() - begin - kHeaderBytes - 1;
  assert(body <= kMaxFramePayload);
  const std::uint32_t length = static_cast<std::uint32_t>(body) + 1;
  char* header = out->data() + begin;
  header[0] = static_cast<char>(length & 0xff);
  header[1] = static_cast<char>((length >> 8) & 0xff);
  header[2] = static_cast<char>((length >> 16) & 0xff);
  header[3] = static_cast<char>((length >> 24) & 0xff);
  header[4] = static_cast<char>(static_cast<std::uint8_t>(type) |
                                (trace != nullptr ? kFrameTraceExtBit : 0));
}

std::string EncodeFrame(FrameType type, std::string_view payload) {
  return EncodeFrame(type, payload, nullptr);
}

std::string EncodeFrame(FrameType type, std::string_view payload,
                        const TraceContext* trace) {
  std::string out;
  out.reserve(kHeaderBytes + 1 + payload.size() + (trace != nullptr ? 48 : 0));
  AppendFrame(type, payload, trace, &out);
  return out;
}

FrameParseStatus ParseFrame(std::string* buffer, Frame* out) {
  if (buffer->size() < kHeaderBytes) return FrameParseStatus::kNeedMore;
  const unsigned char* b =
      reinterpret_cast<const unsigned char*>(buffer->data());
  const std::uint32_t length = static_cast<std::uint32_t>(b[0]) |
                               (static_cast<std::uint32_t>(b[1]) << 8) |
                               (static_cast<std::uint32_t>(b[2]) << 16) |
                               (static_cast<std::uint32_t>(b[3]) << 24);
  if (length == 0 || length > kMaxFramePayload + 1) {
    return FrameParseStatus::kError;
  }
  if (buffer->size() < kHeaderBytes + length) return FrameParseStatus::kNeedMore;
  const std::uint8_t raw_type = b[kHeaderBytes];
  const bool has_ext = (raw_type & kFrameTraceExtBit) != 0;
  const std::uint8_t base_type =
      static_cast<std::uint8_t>(raw_type & ~kFrameTraceExtBit);
  if (!KnownType(base_type)) return FrameParseStatus::kError;
  out->type = static_cast<FrameType>(base_type);
  out->trace.reset();
  out->unknown_ext = false;
  std::string body(*buffer, kHeaderBytes + 1, length - 1);
  if (!has_ext) {
    // Legacy frame: the payload is handed to the strict text codec
    // verbatim, so trailing bytes stay rejected exactly as before the
    // extension existed.
    out->payload = std::move(body);
  } else {
    const std::size_t nul = body.find('\0');
    if (nul == std::string::npos) return FrameParseStatus::kError;
    TraceContext trace;
    if (!ParseTraceExt(body.substr(nul + 1), &trace, &out->unknown_ext)) {
      return FrameParseStatus::kError;
    }
    body.resize(nul);
    out->payload = std::move(body);
    out->trace = trace;
  }
  buffer->erase(0, kHeaderBytes + length);
  return FrameParseStatus::kFrame;
}

std::string EncodeWelcome(std::uint64_t flow) {
  return "flow=" + std::to_string(flow);
}

std::optional<std::uint64_t> DecodeWelcome(const std::string& payload) {
  std::map<std::string, std::string> fields;
  if (!SplitFields(payload, &fields)) return std::nullopt;
  auto it = fields.find("flow");
  if (it == fields.end() || it->second.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(it->second.c_str(), &end, 10);
  if (errno != 0 || end == it->second.c_str() || *end != '\0') {
    return std::nullopt;
  }
  return static_cast<std::uint64_t>(value);
}

std::string EncodeOverload(const OverloadInfo& info) {
  // map-ordered like net/messages.cpp: policy < reason < value.
  std::ostringstream out;
  bool first = true;
  auto emit = [&](const char* key, const std::string& value) {
    if (value.empty()) return;
    if (!first) out << ';';
    out << key << '=' << value;
    first = false;
  };
  emit("policy", info.policy);
  emit("reason", info.reason);
  emit("value", FormatDouble(info.value));
  return out.str();
}

std::optional<OverloadInfo> DecodeOverload(const std::string& payload) {
  std::map<std::string, std::string> fields;
  if (!SplitFields(payload, &fields)) return std::nullopt;
  auto reason = fields.find("reason");
  if (reason == fields.end() || reason->second.empty()) return std::nullopt;
  OverloadInfo info;
  info.reason = reason->second;
  auto policy = fields.find("policy");
  if (policy != fields.end()) info.policy = policy->second;
  auto value = fields.find("value");
  if (value != fields.end()) {
    errno = 0;
    char* end = nullptr;
    const double v = std::strtod(value->second.c_str(), &end);
    if (errno != 0 || end == value->second.c_str() || *end != '\0') {
      return std::nullopt;
    }
    info.value = v;
  }
  return info;
}

}  // namespace flare
