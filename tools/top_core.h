// Core of the flare_top CLI: parse a Prometheus/OpenMetrics exposition
// (the telemetry server's /metrics body) and the /healthz JSON document,
// assemble a per-cell live view, and render it as an aligned terminal
// table or a machine-readable JSON object.
//
// Lives in tools/ (not src/) because it is a consumer of the telemetry
// plane, not part of the simulation; split from flare_top.cpp so
// tests/telemetry_test.cpp can round-trip render/parse without a process.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/json.h"

namespace flare {

/// One exposition sample: `name{label="value",...} 42`.
struct PromSample {
  std::string name;
  /// Sorted by label name (std::map) for deterministic comparisons.
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

/// Parse exposition text into samples. Comment (#) and blank lines are
/// skipped; label values undo the OpenMetrics escapes (\\, \", \n).
/// Returns false (with a line-numbered *error) on a malformed line.
bool ParsePrometheusText(const std::string& text,
                         std::vector<PromSample>* out,
                         std::string* error = nullptr);

/// One cell's row of the live table, filled from flare_qoe_* /
/// flare_health_healthy samples carrying a cell="N" label.
struct CellRow {
  int cell = 0;
  double sessions = 0.0;
  double played = 0.0;
  double avg_bitrate_bps = 0.0;
  double avg_qoe = 0.0;
  double jain = 1.0;
  double stalls = 0.0;
  double stall_ratio = 0.0;
  double blocking_probability = 0.0;
  bool healthy = true;
};

/// Everything one refresh shows: run header from /healthz,
/// telemetry-plane scalars plus per-cell rows from /metrics.
struct TopSnapshot {
  // --- /healthz.
  std::string status = "unknown";  // starting | ok | alarming | unknown
  bool healthy = false;
  std::string scenario;
  double sim_time_s = 0.0;
  double duration_s = 0.0;
  double progress_pct = 0.0;
  double epochs = 0.0;
  double epoch_rate_hz = 0.0;
  double sim_speedup = 0.0;
  int cells = 0;
  int workers = 0;
  double warnings = 0.0;
  // --- /metrics.
  double events_published = 0.0;
  double events_dropped = 0.0;
  double scrapes = 0.0;
  std::vector<CellRow> rows;  // sorted by cell id

  /// One control-plane request stage's latency quantiles, from the
  /// daemon's flare_svc_oneapi_stage_<stage>_<p50|p95|p99>_us gauges.
  /// Present only when the scraped process is a tracing flare_oneapid —
  /// simulation runs render no control-plane section at all.
  struct StageRow {
    std::string stage;
    double p50_us = 0.0;
    double p95_us = 0.0;
    double p99_us = 0.0;
  };
  std::vector<StageRow> stage_rows;  // request-pipeline order
};

/// Assemble the view. Either input may be absent (null healthz / empty
/// samples) — missing facts keep their defaults so a partially-scraped
/// server still renders.
TopSnapshot BuildTopSnapshot(const std::vector<PromSample>& samples,
                             const JsonValue* healthz);

/// Aligned table, one row per cell, no ANSI escapes (the CLI owns the
/// screen-clearing).
std::string RenderTopTable(const TopSnapshot& snap);

/// Machine-readable dump for --json: a single JSON object that parses
/// back with util/json.h.
std::string RenderTopJson(const TopSnapshot& snap);

}  // namespace flare
