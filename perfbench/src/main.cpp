// flare_perfbench: one workload of the FLARE performance benchmark.
//
//   flare_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--scratch DIR]
//
// Prints a human-readable line per metric ("name = value unit"), then as
// its last line one JSON object {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics, or with --trace 1 the per-layer
// metrics. Exits 1 when an output check failed, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every workload reports every metric of its mode.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"cell_sim_s_per_s", "cell-s/s"},
    {"peak_rss_mb", "MB"},      {"qoe_bitrate_kbps", "kbps"},
    {"qoe_changes", "count"},   {"fanout_p50_us", "us"},
    {"fanout_p99_us", "us"},
};

constexpr MetricSpec kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.event_ns", "ns"},
    {"sim.queue_depth_max", "count"},
    {"lte.ttis", "count"},
    {"lte.tti_us.p50", "us"},
    {"lte.tti_us.p99", "us"},
    {"lte.itbs_calls", "count"},
    {"lte.itbs_ns", "ns"},
    {"lte.allocate_ns.pss", "ns"},
    {"lte.allocate_ns.two_phase_gbr", "ns"},
    {"lte.rbs_used", "count"},
    {"core.bais", "count"},
    {"core.decide_bai_us.p50", "us"},
    {"core.decide_bai_us.p99", "us"},
    {"runner.epochs", "count"},
    {"runner.mailbox_messages", "count"},
    {"runner.epoch_ms.p50", "ms"},
    {"runner.epoch_ms.p99", "ms"},
    {"runner.barrier_wait_ms.p99", "ms"},
    {"runner.drain_ms.p99", "ms"},
    {"runner.cpu_busy_ratio", "ratio"},
    {"churn.sessions_arrived", "count"},
    {"churn.sessions_blocked", "count"},
    {"scenario.world_build_ms", "ms"},
    {"has.switches", "count"},
    {"has.stalls", "count"},
    {"svc.tick_us.p50", "us"},
    {"svc.tick_us.p99", "us"},
    {"svc.encode_ns", "ns"},
    {"svc.tick_residual_us", "us"},
    {"svc.assignments", "count"},
    {"svc.assignments_dropped", "count"},
    {"svc.stats_received", "count"},
    {"gen.lag_p99_us", "us"},
    {"client.loop_lag_p99_us", "us"},
    {"client.parse_ns", "ns"},
    {"layers.attributed_share", "ratio"},
    {"trace.overhead_pct", "%"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: flare_perfbench --workload "
               "mobile_cell|multicell_churn|oneapid_fanout --seed N "
               "--seconds S --trace 0|1 [--scratch DIR]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      const long seconds = std::strtol(value.c_str(), &end, 10);
      if (*end != '\0' || seconds < 1 || seconds > 600) return false;
      options->seconds = static_cast<int>(seconds);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (key == "--scratch") {
      options->scratch_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// Shortest decimal that reads back as the same double.
std::string JsonNumber(double value) {
  char buf[64];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

int Emit(const Options& options, Result result) {
  std::vector<Result::Metric> out;
  std::string idle;
  bool complete = true;
  const auto take = [&](const MetricSpec& spec, bool required) {
    for (const Result::Metric& m : result.metrics()) {
      if (m.name != spec.name) continue;
      if (m.unit != spec.unit || !std::isfinite(m.value)) {
        std::fprintf(stderr, "metric %s: bad unit or value\n", spec.name);
        complete = false;
      }
      out.push_back(m);
      return;
    }
    if (required) {
      std::fprintf(stderr, "metric %s was not measured\n", spec.name);
      complete = false;
      return;
    }
    // A layer that does no work on this workload reports 0.
    out.push_back(Result::Metric{spec.name, 0.0, spec.unit});
    idle += (idle.empty() ? "" : ", ") + std::string(spec.name);
  };
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) take(spec, false);
  } else {
    for (const MetricSpec& spec : kEndToEnd) take(spec, true);
  }
  if (!complete) return 3;

  std::printf("workload %s, seed %llu, %d s, %s\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? "traced run (per-layer)" : "end-to-end run");
  for (const std::string& note : result.notes()) {
    std::printf("  %s\n", note.c_str());
  }
  if (!idle.empty()) {
    std::printf("  idle on this workload (reported as 0): %s\n",
                idle.c_str());
  }
  for (const Result::Metric& m : out) {
    std::printf("%-32s = %-14s %s\n", m.name.c_str(),
                JsonNumber(m.value).c_str(), m.unit.c_str());
  }
  const double failed_ratio =
      result.attempted() > 0 ? static_cast<double>(result.failed()) /
                                   static_cast<double>(result.attempted())
                             : 1.0;
  std::printf("%-32s = %-14s %s\n", "failed_ratio",
              JsonNumber(failed_ratio).c_str(), "ratio");

  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted());
  json += ", \"failed\": " + std::to_string(result.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + out[i].name + "\": {\"value\": " +
            JsonNumber(out[i].value) + ", \"unit\": \"" + out[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  if (!ParseArgs(argc, argv, &options)) return Usage();
  if (options.workload == "mobile_cell") {
    return Emit(options, RunMobileCell(options));
  }
  if (options.workload == "multicell_churn") {
    return Emit(options, RunMulticellChurn(options));
  }
  if (options.workload == "oneapid_fanout") {
    return Emit(options, RunOneapidFanout(options));
  }
  return Usage();
}
