#include "scenario/scenario.h"

#include <algorithm>
#include <functional>
#include <span>
#include <stdexcept>
#include <thread>

#include "net/pcrf.h"
#include "obs/telemetry_publisher.h"
#include "scenario/scenario_world.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"

namespace flare {

const char* SchemeName(Scheme scheme) {
  switch (scheme) {
    case Scheme::kFlare:
      return "FLARE";
    case Scheme::kFlareRelaxed:
      return "FLARE-relaxed";
    case Scheme::kFestive:
      return "FESTIVE";
    case Scheme::kGoogle:
      return "GOOGLE";
    case Scheme::kAvis:
      return "AVIS";
    case Scheme::kFlareNetworkOnly:
      return "FLARE-network-only";
  }
  return "?";
}

ScenarioConfig TestbedPreset(Scheme scheme) {
  ScenarioConfig config;
  config.scheme = scheme;
  config.testbed = true;
  config.duration_s = 600.0;
  config.n_video = 3;
  config.n_data = 1;
  config.num_rbs = 50;
  config.ladder_kbps = TestbedLadderKbps();
  config.segment_duration_s = 2.0;
  config.channel = ChannelKind::kStaticItbs;
  config.static_itbs = 6;  // ~4.4 Mbit/s cell; see DESIGN.md calibration
  // Table IV's alpha = 1.0 parameterizes the ns-3 experiments; the
  // testbed section leaves alpha unstated. alpha = 6 reproduces the
  // testbed operating point (FLARE parks at the 790 Kbps tier while the
  // data flow keeps a healthy share, Table I).
  config.oneapi.params.alpha = 6.0;
  return config;
}

ScenarioConfig SimStaticPreset(Scheme scheme) {
  ScenarioConfig config;
  config.scheme = scheme;
  config.testbed = false;
  config.duration_s = 1200.0;  // Table III
  config.n_video = 8;
  config.n_data = 0;
  config.num_rbs = 25;  // ns-3 LTE default (5 MHz)
  config.ladder_kbps = SimulationLadderKbps();
  config.segment_duration_s = 10.0;
  config.channel = ChannelKind::kPlacedStatic;
  config.area_m = 2000.0;
  return config;
}

ScenarioConfig SimMobilePreset(Scheme scheme) {
  ScenarioConfig config = SimStaticPreset(scheme);
  config.channel = ChannelKind::kMobile;
  return config;
}

ScenarioResult RunScenario(const ScenarioConfig& config) {
  Simulator sim;
  Pcrf pcrf;
  ScenarioWorld world(config, sim, pcrf, Rng(config.seed));
  world.Start();
  TelemetryPublisher publisher(config.telemetry, config.telemetry_interval_ms);
  publisher.ConfigureRun(SchemeName(config.scheme), config.duration_s,
                         /*cells=*/1, /*workers=*/0);
  publisher.AddShard({config.metrics, config.qoe, config.health,
                      config.flight, /*metrics_prefix=*/""},
                     /*cell=*/0);
  world.Run(publisher, /*cell=*/0);
  return world.Collect();
}

ScenarioConfig WithoutObservers(ScenarioConfig config) {
  config.metrics = nullptr;
  config.bai_trace = nullptr;
  config.span_trace = nullptr;
  config.health = nullptr;
  config.qoe = nullptr;
  config.flight = nullptr;
  config.telemetry = nullptr;
  return config;
}

std::vector<ScenarioResult> RunMany(std::span<const ScenarioConfig> configs) {
  for (const ScenarioConfig& config : configs) {
    if (config.metrics || config.bai_trace || config.span_trace ||
        config.health || config.qoe || config.flight || config.telemetry) {
      // Several runs would feed one observer (reusing session ids), and
      // the runs are concurrent.
      throw std::invalid_argument(
          "RunMany: config carries observers; observe one RunScenario "
          "instead (WithoutObservers strips them)");
    }
  }
  const std::size_t n = configs.size();
  std::vector<ScenarioResult> results(n);
  // Runs share nothing but the mutex-guarded Logger, so each config is
  // one job; results land in input order whatever order the jobs finish
  // in. The pool clamps its width to >= 1; hardware_concurrency() may be 0.
  ThreadPool pool(static_cast<int>(
      std::min<std::size_t>(n, std::thread::hardware_concurrency())));
  std::vector<std::function<void()>> jobs;
  jobs.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    jobs.emplace_back(
        [&configs, &results, r] { results[r] = RunScenario(configs[r]); });
  }
  pool.RunAll(std::move(jobs));
  return results;
}

std::vector<ScenarioResult> RunMany(const ScenarioConfig& config, int runs) {
  std::vector<ScenarioConfig> configs(
      static_cast<std::size_t>(std::max(runs, 0)), config);
  for (std::size_t r = 0; r < configs.size(); ++r) {
    configs[r].seed = config.seed + r;
  }
  return RunMany(configs);
}

}  // namespace flare
