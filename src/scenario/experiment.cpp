#include "scenario/experiment.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>
#include <utility>

#include "obs/bai_trace.h"
#include "obs/metrics.h"
#include "obs/span_trace.h"
#include "util/config.h"
#include "util/csv.h"

namespace flare {

namespace {

/// Commit identity of the producing build: CI stamps GITHUB_SHA, local
/// harnesses may set FLARE_GIT_SHA (which wins). Empty when neither is
/// set — the envelope then records "unknown" rather than shelling out to
/// git, so exports stay reproducible in hermetic build environments.
std::string HostGitSha() {
  for (const char* var : {"FLARE_GIT_SHA", "GITHUB_SHA"}) {
    const char* sha = std::getenv(var);
    if (sha != nullptr && *sha != '\0') return sha;
  }
  return "unknown";
}

std::string HostName() {
  char buf[256] = {};
  if (gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf[0] != '\0' ? std::string(buf) : std::string("unknown");
}

}  // namespace

double PooledMetrics::MeanJain() const {
  if (jain_per_run.empty()) return 1.0;
  double sum = 0.0;
  for (double j : jain_per_run) sum += j;
  return sum / static_cast<double>(jain_per_run.size());
}

PooledMetrics Pool(const std::vector<ScenarioResult>& runs) {
  PooledMetrics pooled;
  for (const ScenarioResult& run : runs) {
    for (const ClientMetrics& m : run.video) {
      pooled.avg_bitrate_kbps.Add(m.avg_bitrate_bps / 1000.0);
      pooled.bitrate_changes.Add(static_cast<double>(m.bitrate_changes));
      pooled.rebuffer_s.Add(m.rebuffer_time_s);
      pooled.qoe.Add(m.qoe);
    }
    for (double bps : run.data_throughput_bps) {
      pooled.data_throughput_kbps.Add(bps / 1000.0);
    }
    pooled.jain_per_run.push_back(run.jain_avg_bitrate);
  }
  return pooled;
}

void PrintRow(const std::string& label, const std::vector<double>& values,
              const std::vector<std::string>& headers) {
  if (!headers.empty()) {
    std::printf("%-34s", "");
    for (const std::string& h : headers) std::printf(" %12s", h.c_str());
    std::printf("\n");
  }
  std::printf("%-34s", label.c_str());
  for (double v : values) std::printf(" %12s", FormatNumber(v).c_str());
  std::printf("\n");
}

void PrintCdf(const std::string& label, const Cdf& cdf, int points) {
  std::printf("%s (n=%zu):\n", label.c_str(), cdf.count());
  for (const auto& [value, prob] : cdf.Curve(
           static_cast<std::size_t>(points))) {
    std::printf("  p%-4.0f %12s\n", prob * 100.0,
                FormatNumber(value).c_str());
  }
}

std::string BenchCsvPath(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  return "bench_results/" + name + ".csv";
}

std::string BenchJsonPath(const std::string& name) {
  std::error_code ec;
  std::filesystem::create_directories("bench_results", ec);
  return "bench_results/BENCH_" + name + ".json";
}

BenchJsonWriter::BenchJsonWriter(std::string scenario)
    : scenario_(std::move(scenario)) {}

void BenchJsonWriter::Echo(const std::string& key, double value) {
  config_.emplace_back(key, JsonNumber(value));
}

void BenchJsonWriter::Echo(const std::string& key,
                           const std::string& value) {
  config_.emplace_back(key, JsonQuote(value));
}

void BenchJsonWriter::WriteEnvelopeOpen(std::ostream& out) const {
  out << "{\"schema_version\": " << kSchemaVersion
      << ", \"scenario\": " << JsonQuote(scenario_) << ", \"config\": {";
  bool first = true;
  for (const auto& [key, value] : config_) {
    if (!first) out << ", ";
    first = false;
    out << JsonQuote(key) << ": " << value;
  }
  // Provenance lives in its own section so "config" stays commit- and
  // machine-invariant (flare_report keys run comparisons off the config
  // echo; it reads "host" only to stamp trajectory lines).
  out << "}, \"host\": {\"git_sha\": " << JsonQuote(HostGitSha())
      << ", \"hostname\": " << JsonQuote(HostName())
      << ", \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << "}, \"run\": ";
}

bool BenchJsonWriter::Export(const std::string& path,
                             const BaiTraceSink& trace,
                             const MetricsRegistry* registry,
                             const RunHealthMonitor* health,
                             const QoeAnalytics* qoe) const {
  std::ofstream out(path);
  if (!out) return false;
  WriteEnvelopeOpen(out);
  trace.WriteJson(out, registry, health, qoe);
  out << "}\n";
  return static_cast<bool>(out);
}

bool BenchJsonWriter::Export(const std::string& path,
                             const MetricsRegistry& registry) const {
  std::ofstream out(path);
  if (!out) return false;
  WriteEnvelopeOpen(out);
  registry.WriteJson(out);
  out << "}\n";
  return static_cast<bool>(out);
}

void PrintPaperComparison(const std::string& metric, double paper,
                          double measured) {
  std::printf("  %-44s paper %10s   measured %10s\n", metric.c_str(),
              FormatNumber(paper).c_str(), FormatNumber(measured).c_str());
}

BenchScale ScaleFromEnv(int default_runs, double default_duration_s,
                        int argc, char** argv) {
  Config config =
      argv != nullptr ? Config::FromArgs(argc, argv) : Config{};
  BenchScale scale;
  scale.runs = std::max(config.GetInt("runs", default_runs), 0);
  scale.duration_s = config.GetDouble("duration_s", default_duration_s);
  return scale;
}

}  // namespace flare
