#include "scenario/scenario.h"

#include <algorithm>
#include <functional>
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
  // Live telemetry: BAI-periodic read-only publishes of the attached
  // observers. Purely additive — the event only reads state — so run
  // bytes match a telemetry-off run.
  TelemetryPublisher publisher(config.telemetry, config.telemetry_interval_ms);
  if (publisher.enabled()) {
    publisher.ConfigureRun(SchemeName(config.scheme), config.duration_s,
                           /*cells=*/1, /*workers=*/0);
    publisher.AddShard({config.metrics, config.qoe, config.health,
                        config.flight, /*metrics_prefix=*/""},
                       /*cell=*/0);
    const SimTime bai = config.oneapi.bai;
    sim.Every(bai, bai, [&publisher, &sim] {
      publisher.MaybePublish(ToSeconds(sim.Now()));
    });
  }
  sim.RunUntil(FromSeconds(config.duration_s));
  if (publisher.enabled()) publisher.PublishNow(config.duration_s);
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

std::vector<ScenarioResult> RunMany(const ScenarioConfig& config, int runs) {
  if (config.metrics || config.bai_trace || config.span_trace ||
      config.health || config.qoe || config.flight || config.telemetry) {
    // Every run would feed one observer (reusing session ids), and the
    // runs are concurrent.
    throw std::invalid_argument(
        "RunMany: config carries observers; observe one RunScenario "
        "instead (WithoutObservers strips them)");
  }
  const std::size_t n = static_cast<std::size_t>(std::max(runs, 0));
  std::vector<ScenarioResult> results(n);
  // Runs share nothing but the mutex-guarded Logger, so each seed is one
  // job; results land in seed order whatever order the jobs finish in.
  // The pool clamps its width to >= 1; hardware_concurrency() may be 0.
  ThreadPool pool(static_cast<int>(
      std::min<std::size_t>(n, std::thread::hardware_concurrency())));
  std::vector<std::function<void()>> jobs;
  jobs.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    jobs.emplace_back([&config, &results, r] {
      ScenarioConfig run_config = config;
      run_config.seed = config.seed + r;
      results[r] = RunScenario(run_config);
    });
  }
  pool.RunAll(std::move(jobs));
  return results;
}

}  // namespace flare
