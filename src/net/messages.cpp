#include "net/messages.h"

#include <array>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <initializer_list>
#include <limits>
#include <string>
#include <vector>

#include "util/csv.h"

namespace flare {
namespace {

// key=value fields separated by ';'. Values never contain ';' or '='
// (numbers and comma-joined number lists only). Keys are written in sorted
// order. Integer ids and levels are written in full: "%.6g" would round a
// flow id above 999999, and kInvalidFlow past the FlowId range.

/// Calls `token(text)` for each `sep`-separated token of `text`; a single
/// trailing separator ends the text, as it ends a std::getline loop. Stops
/// and returns false at the first token `token` rejects.
template <typename Token>
bool ForEachToken(std::string_view text, char sep, Token token) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find(sep, pos);
    if (end == std::string_view::npos) end = text.size();
    if (!token(text.substr(pos, end - pos))) return false;
    pos = end + 1;
  }
  return true;
}

/// The values of the keys one decoder reads, found in one pass over the
/// wire with no copies. Every token needs a '=' after a non-empty key, the
/// value runs to the token's end, the last occurrence of a key wins, and
/// a wire with no token is malformed. Keys the decoder does not read are
/// checked and skipped.
class Fields {
 public:
  Fields(std::string_view wire, std::initializer_list<std::string_view> keys)
      : count_(keys.size()) {
    assert(keys.size() <= kMaxKeys);
    std::size_t i = 0;
    for (const std::string_view key : keys) keys_[i++] = key;
    ok_ = !wire.empty() &&
          ForEachToken(wire, ';', [this](std::string_view token) {
            const std::size_t eq = token.find('=');
            if (eq == std::string_view::npos || eq == 0) return false;
            const std::string_view key = token.substr(0, eq);
            for (std::size_t k = 0; k < count_; ++k) {
              if (keys_[k] == key) values_[k] = token.substr(eq + 1);
            }
            return true;
          });
  }

  bool ok() const { return ok_; }
  /// The value of `key`, which must be one of the constructor's keys.
  std::optional<std::string_view> Get(std::string_view key) const {
    for (std::size_t k = 0; k < count_; ++k) {
      if (keys_[k] == key) return values_[k];
    }
    assert(false && "key not declared");
    return std::nullopt;
  }
  bool Has(std::string_view key) const { return Get(key).has_value(); }
  bool Is(std::string_view key, std::string_view value) const {
    const auto found = Get(key);
    return found && *found == value;
  }

 private:
  static constexpr std::size_t kMaxKeys = 8;
  std::size_t count_;
  std::array<std::string_view, kMaxKeys> keys_;
  std::array<std::optional<std::string_view>, kMaxKeys> values_;
  bool ok_ = false;
};

/// A whole token as a finite double, through strtod.
std::optional<double> ParseNumber(std::string_view text) {
  return WithCString(text, [](const char* c_str) -> std::optional<double> {
    char* end = nullptr;
    const double value = std::strtod(c_str, &end);
    if (end == c_str || *end != '\0') return std::nullopt;
    // strtod accepts "nan" and "inf"; no field of this protocol carries
    // them.
    if (!std::isfinite(value)) return std::nullopt;
    return value;
  });
}

std::optional<double> Number(const Fields& fields, std::string_view key) {
  const auto value = fields.Get(key);
  if (!value) return std::nullopt;
  return ParseNumber(*value);
}

/// An integral number inside Int's range, so the conversion is defined.
template <typename Int>
std::optional<Int> Integer(const Fields& fields, std::string_view key) {
  const auto value = Number(fields, key);
  if (!value || *value != std::trunc(*value)) return std::nullopt;
  // Both bounds are exact doubles: lowest() is 0 or -2^k, and max() + 1 is
  // the power of two 2 * (max() / 2 + 1).
  constexpr double kLowest =
      static_cast<double>(std::numeric_limits<Int>::lowest());
  constexpr double kPastMax =
      2.0 * static_cast<double>(std::numeric_limits<Int>::max() / 2 + 1);
  if (*value < kLowest || *value >= kPastMax) return std::nullopt;
  return static_cast<Int>(*value);
}

std::optional<std::vector<double>> NumberList(const Fields& fields,
                                              std::string_view key) {
  const auto list = fields.Get(key);
  if (!list) return std::nullopt;
  std::vector<double> values;
  const bool ok = ForEachToken(*list, ',', [&values](std::string_view token) {
    const auto value = ParseNumber(token);
    if (value) values.push_back(*value);
    return value.has_value();
  });
  if (!ok || values.empty()) return std::nullopt;
  return values;
}

/// Writes "key=value" pairs joined by ';' onto the end of `out`.
class FieldWriter {
 public:
  explicit FieldWriter(std::string* out) : out_(out) {}
  std::string& Key(const char* key) {
    if (!first_) out_->push_back(';');
    first_ = false;
    out_->append(key);
    out_->push_back('=');
    return *out_;
  }
  template <typename Int>
  void Integer(const char* key, Int value) {
    char buf[24];
    Key(key).append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  }
  void Number(const char* key, double value) { AppendNumber(value, &Key(key)); }
  void Text(const char* key, const char* value) { Key(key).append(value); }

 private:
  std::string* out_;
  bool first_ = true;
};

}  // namespace

std::string EncodeClientInfo(const ClientInfo& info) {
  std::string out;
  FieldWriter fields(&out);
  if (info.utility) fields.Number("beta", info.utility->beta);
  fields.Integer("flow", info.flow);
  std::string& ladder = fields.Key("ladder");
  for (std::size_t i = 0; i < info.ladder_bps.size(); ++i) {
    if (i > 0) ladder.push_back(',');
    AppendNumber(info.ladder_bps[i], &ladder);
  }
  if (info.max_level) fields.Integer("max_level", *info.max_level);
  if (info.skimming) fields.Text("skimming", "1");
  if (info.utility) fields.Number("theta", info.utility->theta_bps);
  fields.Text("type", "client_info");
  return out;
}

std::optional<ClientInfo> DecodeClientInfo(std::string_view wire) {
  const Fields fields(wire, {"beta", "flow", "ladder", "max_level",
                             "skimming", "theta", "type"});
  if (!fields.ok() || !fields.Is("type", "client_info")) return std::nullopt;
  const auto flow = Integer<FlowId>(fields, "flow");
  auto ladder = NumberList(fields, "ladder");
  if (!flow || !ladder) return std::nullopt;

  ClientInfo info;
  info.flow = *flow;
  info.ladder_bps = std::move(*ladder);
  if (fields.Has("max_level")) {
    const auto max_level = Integer<int>(fields, "max_level");
    if (!max_level) return std::nullopt;
    info.max_level = *max_level;
  }
  const auto beta = Number(fields, "beta");
  const auto theta = Number(fields, "theta");
  // A disclosed field that does not parse is malformed, not absent.
  if ((!beta && fields.Has("beta")) || (!theta && fields.Has("theta"))) {
    return std::nullopt;
  }
  if (beta && theta) {
    VideoUtilityParams utility;
    utility.beta = *beta;
    utility.theta_bps = *theta;
    info.utility = utility;
  }
  info.skimming = fields.Is("skimming", "1");
  return info;
}

void AppendRateAssignment(const RateAssignmentMsg& msg, std::string* out) {
  FieldWriter fields(out);
  fields.Integer("flow", msg.flow);
  fields.Number("gbr", msg.gbr_bps);
  fields.Integer("level", msg.level);
  fields.Number("rate", msg.rate_bps);
  fields.Text("type", "rate_assignment");
}

std::string EncodeRateAssignment(const RateAssignmentMsg& msg) {
  std::string out;
  AppendRateAssignment(msg, &out);
  return out;
}

std::optional<RateAssignmentMsg> DecodeRateAssignment(std::string_view wire) {
  const Fields fields(wire, {"flow", "gbr", "level", "rate", "type"});
  if (!fields.ok() || !fields.Is("type", "rate_assignment")) {
    return std::nullopt;
  }
  const auto flow = Integer<FlowId>(fields, "flow");
  const auto level = Integer<int>(fields, "level");
  const auto rate = Number(fields, "rate");
  const auto gbr = Number(fields, "gbr");
  if (!flow || !level || !rate || !gbr) return std::nullopt;
  RateAssignmentMsg msg;
  msg.flow = *flow;
  msg.level = *level;
  msg.rate_bps = *rate;
  msg.gbr_bps = *gbr;
  return msg;
}

std::string EncodeStatsReport(const FlowStatsReport& report) {
  std::string out;
  FieldWriter fields(&out);
  fields.Text("class", report.type == FlowType::kVideo ? "video" : "data");
  fields.Integer("flow", report.flow);
  fields.Number("rb_util", report.rb_utilization);
  fields.Number("rbs", static_cast<double>(report.rbs));
  fields.Number("tput", report.throughput_bps);
  fields.Number("tx_bytes", static_cast<double>(report.tx_bytes));
  fields.Text("type", "stats_report");
  return out;
}

std::optional<FlowStatsReport> DecodeStatsReport(std::string_view wire) {
  const Fields fields(wire, {"class", "flow", "rb_util", "rbs", "tput",
                             "tx_bytes", "type"});
  if (!fields.ok() || !fields.Is("type", "stats_report") ||
      !fields.Has("class")) {
    return std::nullopt;
  }
  const auto flow = Integer<FlowId>(fields, "flow");
  const auto tx_bytes = Integer<std::uint64_t>(fields, "tx_bytes");
  const auto rbs = Integer<std::uint64_t>(fields, "rbs");
  const auto tput = Number(fields, "tput");
  const auto rb_util = Number(fields, "rb_util");
  if (!flow || !tx_bytes || !rbs || !tput || !rb_util) return std::nullopt;
  const std::string_view cls = *fields.Get("class");
  if (cls != "video" && cls != "data") return std::nullopt;

  FlowStatsReport report;
  report.flow = *flow;
  report.type = cls == "video" ? FlowType::kVideo : FlowType::kData;
  report.tx_bytes = *tx_bytes;
  report.rbs = *rbs;
  report.throughput_bps = *tput;
  report.rb_utilization = *rb_util;
  return report;
}

}  // namespace flare
