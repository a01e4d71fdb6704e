#include "obs/openmetrics.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "util/csv.h"

namespace flare {

std::string OpenMetricsEscapeLabel(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string OpenMetricsName(std::string_view dotted) {
  std::string out = "flare_";
  out.reserve(out.size() + dotted.size());
  for (char c : dotted) {
    const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                       (c >= '0' && c <= '9') || c == '_';
    out += legal ? c : '_';
  }
  return out;
}

OpenMetricsSeries SplitCellPrefix(std::string_view name) {
  OpenMetricsSeries series;
  if (name.size() > 4 && name.compare(0, 4, "cell") == 0) {
    std::size_t i = 4;
    while (i < name.size() && name[i] >= '0' && name[i] <= '9') ++i;
    if (i > 4 && i < name.size() && name[i] == '.' && i + 1 < name.size()) {
      series.cell.assign(name.substr(4, i - 4));
      series.family.assign(name.substr(i + 1));
      return series;
    }
  }
  series.family.assign(name);
  return series;
}

namespace {

/// All series of one family, keyed by cell label (input order kept).
template <typename V>
using FamilyMap =
    std::map<std::string, std::vector<std::pair<std::string, V>>>;

template <typename M, typename V>
FamilyMap<V> GroupByFamily(const M& by_name) {
  FamilyMap<V> families;
  for (const auto& [name, value] : by_name) {
    OpenMetricsSeries series = SplitCellPrefix(name);
    families[series.family].emplace_back(std::move(series.cell), value);
  }
  return families;
}

void AppendHeader(std::string* out, const std::string& name,
                  const std::string& family_dotted, const char* type) {
  out->append("# HELP ").append(name).append(1, ' ');
  out->append(OpenMetricsEscapeLabel(family_dotted));
  out->append("\n# TYPE ").append(name).append(1, ' ').append(type);
  out->push_back('\n');
}

/// `{cell="N",extra}` (either part may be absent).
void AppendLabels(std::string* out, const std::string& cell,
                  const std::string& extra) {
  if (cell.empty() && extra.empty()) return;
  out->push_back('{');
  if (!cell.empty()) {
    out->append("cell=\"").append(OpenMetricsEscapeLabel(cell)).append("\"");
    if (!extra.empty()) out->push_back(',');
  }
  out->append(extra);
  out->push_back('}');
}

void AppendSample(std::string* out, const std::string& name,
                  const std::string& cell, const std::string& extra,
                  const std::string& value) {
  out->append(name);
  AppendLabels(out, cell, extra);
  out->push_back(' ');
  out->append(value);
  out->push_back('\n');
}

}  // namespace

void RenderOpenMetrics(const MetricsSnapshot& snapshot, std::string* out) {
  for (const auto& [family, series] :
       GroupByFamily<decltype(snapshot.counters), std::uint64_t>(
           snapshot.counters)) {
    const std::string name = OpenMetricsName(family) + "_total";
    AppendHeader(out, name, family, "counter");
    for (const auto& [cell, value] : series) {
      AppendSample(out, name, cell, {}, std::to_string(value));
    }
  }

  for (const auto& [family, series] :
       GroupByFamily<decltype(snapshot.gauges), double>(snapshot.gauges)) {
    // A family whose every series is NaN disappears entirely.
    bool any = false;
    for (const auto& [cell, value] : series) any |= !std::isnan(value);
    if (!any) continue;
    const std::string name = OpenMetricsName(family);
    AppendHeader(out, name, family, "gauge");
    for (const auto& [cell, value] : series) {
      if (std::isnan(value)) continue;
      AppendSample(out, name, cell, {}, FormatNumber(value));
    }
  }

  for (const auto& [family, series] :
       GroupByFamily<decltype(snapshot.histograms), Histogram>(
           snapshot.histograms)) {
    const std::string name = OpenMetricsName(family);
    AppendHeader(out, name, family, "histogram");
    for (const auto& [cell, hist] : series) {
      for (const Histogram::Edge& edge : hist.CumulativeEdges()) {
        const std::string le =
            std::isinf(edge.le) ? "+Inf" : FormatBucketEdge(edge.le);
        AppendSample(out, name + "_bucket", cell, "le=\"" + le + "\"",
                     std::to_string(edge.count));
      }
      AppendSample(out, name + "_sum", cell, {}, FormatNumber(hist.sum()));
      AppendSample(out, name + "_count", cell, {},
                   std::to_string(hist.count()));
    }
    // Companion quantile gauges (the histogram's bounded-error estimates);
    // empty histograms have NaN quantiles and contribute nothing.
    bool any = false;
    for (const auto& [cell, hist] : series) any |= hist.count() > 0;
    if (!any) continue;
    const std::string qname = name + "_quantile";
    AppendHeader(out, qname, family + " quantiles", "gauge");
    for (const auto& [cell, hist] : series) {
      if (hist.count() == 0) continue;
      for (const auto& [label, q] :
           {std::pair<const char*, double>{"0.5", 0.50},
            {"0.95", 0.95},
            {"0.99", 0.99}}) {
        AppendSample(out, qname, cell,
                     std::string("quantile=\"") + label + "\"",
                     FormatNumber(hist.Quantile(q)));
      }
    }
  }
}

std::string RenderOpenMetrics(const MetricsSnapshot& snapshot) {
  std::string out;
  RenderOpenMetrics(snapshot, &out);
  return out;
}

}  // namespace flare
