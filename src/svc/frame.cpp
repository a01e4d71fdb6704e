#include "svc/frame.h"

#include <array>
#include <cassert>
#include <cerrno>
#include <charconv>
#include <cstdlib>

#include "util/csv.h"

namespace flare {
namespace {

constexpr std::size_t kHeaderBytes = 4;  // u32 LE length

bool KnownType(std::uint8_t raw) {
  return raw >= static_cast<std::uint8_t>(FrameType::kClientInfo) &&
         raw <= static_cast<std::uint8_t>(FrameType::kOverload);
}

// The welcome/overload payload grammar: ';'-separated key=value fields,
// strict — no empty field (so no trailing ';'), no empty key — and the
// last occurrence of a key wins. An empty payload has no field. Fills
// values[i] with the value of keys[i], when present; false on malformed
// input.
template <std::size_t N>
bool SplitFields(std::string_view payload,
                 const std::array<std::string_view, N>& keys,
                 std::array<std::optional<std::string_view>, N>* values) {
  if (payload.empty()) return true;
  std::size_t start = 0;
  for (;;) {
    std::size_t end = payload.find(';', start);
    if (end == std::string_view::npos) end = payload.size();
    const std::string_view field = payload.substr(start, end - start);
    const std::size_t eq = field.find('=');
    if (eq == std::string_view::npos || eq == 0) return false;
    for (std::size_t k = 0; k < N; ++k) {
      if (keys[k] == field.substr(0, eq)) (*values)[k] = field.substr(eq + 1);
    }
    if (end == payload.size()) return true;
    start = end + 1;
  }
}

bool ParseI64(std::string_view text, std::int64_t* out) {
  if (text.empty()) return false;
  return WithCString(text, [out](const char* c_str) {
    errno = 0;
    char* end = nullptr;
    const long long value = std::strtoll(c_str, &end, 10);
    if (errno != 0 || end == c_str || *end != '\0') return false;
    *out = static_cast<std::int64_t>(value);
    return true;
  });
}

bool ParseHex64(std::string_view text, std::uint64_t* out) {
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

void AppendInteger(std::int64_t value, std::string* out) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
}

void AppendTraceTrailer(const TraceContext& trace, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('\0');
  out->append("trace=");
  for (int shift = 60; shift >= 0; shift -= 4) {
    out->push_back(kHex[(trace.trace_id >> shift) & 0xf]);
  }
  out->append(";ts=");
  AppendInteger(trace.client_send_us, out);
  if (trace.server_recv_us != 0 || trace.server_send_us != 0) {
    out->append(";srx=");
    AppendInteger(trace.server_recv_us, out);
    out->append(";stx=");
    AppendInteger(trace.server_send_us, out);
  }
}

// Parse the extension block (bytes after the first '\0'). Known keys are
// strict — a frame that claims to carry a trace context but mangles it is
// a protocol violation, same as a mangled length. Everything else
// (unknown keys, field syntax noise, bytes past a second '\0') is the
// forward-compatibility surface: tolerated and flagged.
bool ParseTraceExt(std::string_view ext, TraceContext* trace,
                   bool* unknown_ext) {
  const std::size_t nul = ext.find('\0');
  if (nul != std::string_view::npos) {
    ext = ext.substr(0, nul);
    *unknown_ext = true;
  }
  bool have_trace = false;
  std::size_t start = 0;
  while (start <= ext.size()) {
    std::size_t end = ext.find(';', start);
    if (end == std::string_view::npos) end = ext.size();
    const std::string_view field = ext.substr(start, end - start);
    const std::size_t eq = field.find('=');
    if (field.empty() || eq == std::string_view::npos || eq == 0) {
      if (!field.empty()) *unknown_ext = true;
      start = end + 1;
      if (end == ext.size()) break;
      continue;
    }
    const std::string_view key = field.substr(0, eq);
    const std::string_view value = field.substr(eq + 1);
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
  std::string_view body(buffer->data() + kHeaderBytes + 1, length - 1);
  if (has_ext) {
    // Legacy frames skip this: their payload goes to the strict text
    // codec verbatim, so trailing bytes stay rejected exactly as before
    // the extension existed.
    const std::size_t nul = body.find('\0');
    if (nul == std::string_view::npos) return FrameParseStatus::kError;
    TraceContext trace;
    if (!ParseTraceExt(body.substr(nul + 1), &trace, &out->unknown_ext)) {
      return FrameParseStatus::kError;
    }
    body = body.substr(0, nul);
    out->trace = trace;
  }
  out->payload.assign(body);  // reuses the frame's capacity
  buffer->erase(0, kHeaderBytes + length);
  return FrameParseStatus::kFrame;
}

std::string EncodeWelcome(std::uint64_t flow) {
  return "flow=" + std::to_string(flow);
}

std::optional<std::uint64_t> DecodeWelcome(std::string_view payload) {
  std::array<std::optional<std::string_view>, 1> values;
  if (!SplitFields<1>(payload, {"flow"}, &values)) return std::nullopt;
  const auto& flow = values[0];
  if (!flow || flow->empty()) return std::nullopt;
  return WithCString(*flow, [](const char* c_str)
                                -> std::optional<std::uint64_t> {
    errno = 0;
    char* end = nullptr;
    const unsigned long long value = std::strtoull(c_str, &end, 10);
    if (errno != 0 || end == c_str || *end != '\0') return std::nullopt;
    return static_cast<std::uint64_t>(value);
  });
}

std::string EncodeOverload(const OverloadInfo& info) {
  // Sorted keys like net/messages.cpp: policy < reason < value. An empty
  // policy or reason is left out.
  std::string out;
  const auto key = [&out](const char* name) {
    if (!out.empty()) out.push_back(';');
    out.append(name);
  };
  if (!info.policy.empty()) {
    key("policy=");
    out.append(info.policy);
  }
  if (!info.reason.empty()) {
    key("reason=");
    out.append(info.reason);
  }
  key("value=");
  AppendNumber(info.value, &out);
  return out;
}

std::optional<OverloadInfo> DecodeOverload(std::string_view payload) {
  std::array<std::optional<std::string_view>, 3> values;
  if (!SplitFields<3>(payload, {"policy", "reason", "value"}, &values)) {
    return std::nullopt;
  }
  const auto& [policy, reason, value] = values;
  if (!reason || reason->empty()) return std::nullopt;
  OverloadInfo info;
  info.reason = *reason;
  if (policy) info.policy = *policy;
  if (value) {
    const bool ok = WithCString(*value, [&info](const char* c_str) {
      errno = 0;
      char* end = nullptr;
      info.value = std::strtod(c_str, &end);
      return errno == 0 && end != c_str && *end == '\0';
    });
    if (!ok) return std::nullopt;
  }
  return info;
}

}  // namespace flare
