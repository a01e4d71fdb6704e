// Prometheus/OpenMetrics text exposition for MetricsSnapshot.
//
// The registry's dotted names ("cell3.player.stalls",
// "runner.barrier_wait_ms") are not valid Prometheus metric names, so the
// renderer (a) extracts a leading "cell<N>." prefix into a `cell="N"`
// label — one family per logical metric, one series per cell, which is
// what makes `flare_top`'s per-cell table a straight group-by — and
// (b) sanitizes the rest into `flare_<name>` ([a-zA-Z0-9_], '.' -> '_').
//
// Kinds map as: counters -> `<family>_total` counter series; gauges ->
// gauge series (NaN values are omitted — NaN has no useful meaning to an
// alerting rule and some scrapers reject it); histograms -> classic
// `_bucket`/`_sum`/`_count` series, with `le` at 0, at each power-of-two
// octave edge across the observed range and at +Inf (exact cumulative
// counts, Histogram::CumulativeEdges), plus a companion
// `<family>_quantile{quantile="0.5|0.95|0.99"}` gauge family carrying the
// histogram's bounded-error quantiles (omitted while the histogram is
// empty, where Quantile() is NaN).
//
// Pure functions over plain data: unit-testable with golden text, no
// sockets involved.
#pragma once

#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace flare {

/// Escape a label value per the text exposition rules:
/// `\` -> `\\`, `"` -> `\"`, newline -> `\n`.
std::string OpenMetricsEscapeLabel(std::string_view value);

/// Sanitize one dotted metric name (cell prefix already stripped) into a
/// legal exposition name: "flare_" + name with every character outside
/// [a-zA-Z0-9_] replaced by '_'.
std::string OpenMetricsName(std::string_view dotted);

/// "cell<N>.rest" -> {family: "rest", cell: "N"}; anything else keeps the
/// whole name and an empty cell label.
struct OpenMetricsSeries {
  std::string family;  // dotted name without the cell prefix
  std::string cell;    // decimal cell index, or empty
};
OpenMetricsSeries SplitCellPrefix(std::string_view name);

/// Render a whole snapshot as exposition text. No trailing "# EOF" —
/// the telemetry server appends its own self-metrics and the terminator.
void RenderOpenMetrics(const MetricsSnapshot& snapshot, std::string* out);
std::string RenderOpenMetrics(const MetricsSnapshot& snapshot);

}  // namespace flare
