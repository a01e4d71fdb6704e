#include "net/messages.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/csv.h"

namespace flare {
namespace {

// key=value fields separated by ';'. Values never contain ';' or '='
// (numbers and comma-joined number lists only). Integer ids and levels are
// written in full: "%.6g" would round a flow id above 999999, and
// kInvalidFlow past the FlowId range.
using Fields = std::map<std::string, std::string>;

std::string Join(const Fields& fields) {
  std::ostringstream out;
  bool first = true;
  for (const auto& [key, value] : fields) {
    if (!first) out << ';';
    out << key << '=' << value;
    first = false;
  }
  return out.str();
}

std::optional<Fields> Split(const std::string& wire) {
  Fields fields;
  std::istringstream in(wire);
  std::string token;
  while (std::getline(in, token, ';')) {
    const auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    fields[token.substr(0, eq)] = token.substr(eq + 1);
  }
  if (fields.empty()) return std::nullopt;
  return fields;
}

std::optional<double> Number(const Fields& fields, const std::string& key) {
  const auto it = fields.find(key);
  if (it == fields.end()) return std::nullopt;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') return std::nullopt;
  // strtod accepts "nan" and "inf"; no field of this protocol carries them.
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

/// An integral number inside Int's range, so the conversion is defined.
template <typename Int>
std::optional<Int> Integer(const Fields& fields, const std::string& key) {
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
                                              const std::string& key) {
  const auto it = fields.find(key);
  if (it == fields.end()) return std::nullopt;
  std::vector<double> values;
  std::istringstream in(it->second);
  std::string token;
  while (std::getline(in, token, ',')) {
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0' || !std::isfinite(value)) {
      return std::nullopt;
    }
    values.push_back(value);
  }
  if (values.empty()) return std::nullopt;
  return values;
}

}  // namespace

std::string EncodeClientInfo(const ClientInfo& info) {
  Fields fields;
  fields["type"] = "client_info";
  fields["flow"] = std::to_string(info.flow);
  std::ostringstream ladder;
  for (std::size_t i = 0; i < info.ladder_bps.size(); ++i) {
    if (i > 0) ladder << ',';
    ladder << FormatNumber(info.ladder_bps[i]);
  }
  fields["ladder"] = ladder.str();
  if (info.max_level) fields["max_level"] = std::to_string(*info.max_level);
  if (info.utility) {
    fields["beta"] = FormatNumber(info.utility->beta);
    fields["theta"] = FormatNumber(info.utility->theta_bps);
  }
  if (info.skimming) fields["skimming"] = "1";
  return Join(fields);
}

std::optional<ClientInfo> DecodeClientInfo(const std::string& wire) {
  const auto fields = Split(wire);
  if (!fields || fields->count("type") == 0 ||
      fields->at("type") != "client_info") {
    return std::nullopt;
  }
  const auto flow = Integer<FlowId>(*fields, "flow");
  const auto ladder = NumberList(*fields, "ladder");
  if (!flow || !ladder) return std::nullopt;

  ClientInfo info;
  info.flow = *flow;
  info.ladder_bps = *ladder;
  if (fields->count("max_level") > 0) {
    const auto max_level = Integer<int>(*fields, "max_level");
    if (!max_level) return std::nullopt;
    info.max_level = *max_level;
  }
  const auto beta = Number(*fields, "beta");
  const auto theta = Number(*fields, "theta");
  // A disclosed field that does not parse is malformed, not absent.
  if ((!beta && fields->count("beta") > 0) ||
      (!theta && fields->count("theta") > 0)) {
    return std::nullopt;
  }
  if (beta && theta) {
    VideoUtilityParams utility;
    utility.beta = *beta;
    utility.theta_bps = *theta;
    info.utility = utility;
  }
  info.skimming = fields->count("skimming") > 0 &&
                  fields->at("skimming") == "1";
  return info;
}

void AppendRateAssignment(const RateAssignmentMsg& msg, std::string* out) {
  // Join's key order, written directly; rates in FormatNumber's "%.6g".
  char buf[32];
  const auto integer = [&](const char* key, auto value) {
    out->append(key);
    out->append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  };
  const auto number = [&](const char* key, double value) {
    out->append(key);
    out->append(buf, static_cast<std::size_t>(
                         std::snprintf(buf, sizeof(buf), "%.6g", value)));
  };
  integer("flow=", msg.flow);
  number(";gbr=", msg.gbr_bps);
  integer(";level=", msg.level);
  number(";rate=", msg.rate_bps);
  out->append(";type=rate_assignment");
}

std::string EncodeRateAssignment(const RateAssignmentMsg& msg) {
  std::string out;
  AppendRateAssignment(msg, &out);
  return out;
}

std::optional<RateAssignmentMsg> DecodeRateAssignment(
    const std::string& wire) {
  const auto fields = Split(wire);
  if (!fields || fields->count("type") == 0 ||
      fields->at("type") != "rate_assignment") {
    return std::nullopt;
  }
  const auto flow = Integer<FlowId>(*fields, "flow");
  const auto level = Integer<int>(*fields, "level");
  const auto rate = Number(*fields, "rate");
  const auto gbr = Number(*fields, "gbr");
  if (!flow || !level || !rate || !gbr) return std::nullopt;
  RateAssignmentMsg msg;
  msg.flow = *flow;
  msg.level = *level;
  msg.rate_bps = *rate;
  msg.gbr_bps = *gbr;
  return msg;
}

std::string EncodeStatsReport(const FlowStatsReport& report) {
  Fields fields;
  fields["type"] = "stats_report";
  fields["flow"] = std::to_string(report.flow);
  fields["class"] = report.type == FlowType::kVideo ? "video" : "data";
  fields["tx_bytes"] = FormatNumber(static_cast<double>(report.tx_bytes));
  fields["rbs"] = FormatNumber(static_cast<double>(report.rbs));
  fields["tput"] = FormatNumber(report.throughput_bps);
  fields["rb_util"] = FormatNumber(report.rb_utilization);
  return Join(fields);
}

std::optional<FlowStatsReport> DecodeStatsReport(const std::string& wire) {
  const auto fields = Split(wire);
  if (!fields || fields->count("type") == 0 ||
      fields->at("type") != "stats_report" ||
      fields->count("class") == 0) {
    return std::nullopt;
  }
  const auto flow = Integer<FlowId>(*fields, "flow");
  const auto tx_bytes = Integer<std::uint64_t>(*fields, "tx_bytes");
  const auto rbs = Integer<std::uint64_t>(*fields, "rbs");
  const auto tput = Number(*fields, "tput");
  const auto rb_util = Number(*fields, "rb_util");
  if (!flow || !tx_bytes || !rbs || !tput || !rb_util) return std::nullopt;
  const std::string& cls = fields->at("class");
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
