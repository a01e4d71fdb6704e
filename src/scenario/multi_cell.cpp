#include "scenario/multi_cell.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <memory>
#include <string>

#include "net/pcrf.h"
#include "obs/telemetry_publisher.h"
#include "scenario/scenario_world.h"
#include "sim/parallel_runner.h"
#include "util/time.h"

namespace flare {

namespace {

/// Everything one cell's domain owns. Shard observers exist even when the
/// merged sinks are disabled — a world's pointers must stay valid for its
/// lifetime and the shards are cheap when unused.
struct CellShard {
  CellShard(const WatchdogConfig& watchdog, QoeEngineWeights qoe_weights,
            std::size_t flight_capacity)
      : health(watchdog), qoe(qoe_weights), flight(flight_capacity) {}

  Pcrf pcrf;  // this cell's flows, tagged with the cell index
  MetricsRegistry metrics;
  BaiTraceSink trace;
  SpanTracer spans;
  RunHealthMonitor health;
  QoeAnalytics qoe;
  FlightRecorder flight;
  std::unique_ptr<ScenarioWorld> world;
};

}  // namespace

MultiCellResult RunMultiCellScenario(const MultiCellConfig& config) {
  const int n_cells = std::max(config.n_cells, 1);

  ParallelRunner::Options options;
  options.workers = std::max(config.workers, 0);
  options.epoch = config.cell.oneapi.bai;
  ParallelRunner runner(options);

  // Per-cell worlds. deque: shard addresses must survive emplace_back
  // (worlds hold pointers into their shard's observers and PCRF).
  const bool deterministic = config.cell.oneapi.deterministic_timing;
  runner.SetObservers(config.metrics, config.span_trace, deterministic);
  if (config.span_trace != nullptr) {
    config.span_trace->set_deterministic(deterministic);
    config.span_trace->set_default_pid(0);  // coordinator/runner process
  }

  const Rng master(config.cell.seed);
  // Live telemetry rides the barrier hook; shard observers are treated
  // as enabled whenever the server is attached so mid-run QoE/health/
  // event tailing works even without end-of-run export sinks.
  const bool telemetry_on = config.telemetry != nullptr;
  TelemetryPublisher publisher(config.telemetry,
                               config.telemetry_interval_ms);
  std::deque<CellShard> shards;
  for (int c = 0; c < n_cells; ++c) {
    EventDomain& domain = runner.AddDomain();
    CellShard& shard = shards.emplace_back(
        config.health != nullptr ? config.health->config() : WatchdogConfig{},
        config.qoe != nullptr ? config.qoe->weights() : QoeEngineWeights{},
        config.flight != nullptr ? config.flight->capacity()
                                 : FlightRecorder::kDefaultCapacity);
    if (config.span_trace != nullptr) domain.SetSpanTracer(&shard.spans);

    ScenarioConfig cell_config = config.cell;
    cell_config.oneapi.cell_tag = static_cast<Pcrf::CellTag>(c);
    cell_config.metrics = config.metrics != nullptr || telemetry_on
                              ? &shard.metrics
                              : nullptr;
    cell_config.bai_trace =
        config.bai_trace != nullptr ? &shard.trace : nullptr;
    cell_config.span_trace =
        config.span_trace != nullptr ? &shard.spans : nullptr;
    cell_config.health = config.health != nullptr || telemetry_on
                             ? &shard.health
                             : nullptr;
    cell_config.qoe =
        config.qoe != nullptr || telemetry_on ? &shard.qoe : nullptr;
    cell_config.flight = config.flight != nullptr || telemetry_on
                             ? &shard.flight
                             : nullptr;
    // Telemetry is published from the coordinator's barrier hook, never
    // from inside a cell's world.
    cell_config.telemetry = nullptr;

    shard.world = std::make_unique<ScenarioWorld>(
        cell_config, domain.sim(), shard.pcrf,
        master.SplitStream(static_cast<std::uint64_t>(c)));
    shard.world->Start();

    if (telemetry_on) {
      publisher.AddShard({&shard.metrics, &shard.qoe, &shard.health,
                          &shard.flight,
                          "cell" + std::to_string(c) + "."},
                         c);
    }
  }
  if (telemetry_on) {
    publisher.ConfigureRun(
        std::string(SchemeName(config.cell.scheme)) + " x" +
            std::to_string(n_cells),
        config.cell.duration_s, n_cells, options.workers);
    publisher.SetCoordinatorMetrics(config.metrics);
    runner.SetBarrierHook([&publisher](SimTime now) {
      publisher.MaybePublish(ToSeconds(now));
    });
  }

  const auto wall_start = std::chrono::steady_clock::now();
  runner.RunUntil(FromSeconds(config.cell.duration_s));
  const auto wall_end = std::chrono::steady_clock::now();
  // Final snapshot so scrapers see the end-of-run state even when the
  // last interval had not elapsed.
  if (telemetry_on) publisher.PublishNow(config.cell.duration_s);

  MultiCellResult result;
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       wall_end - wall_start)
                       .count();
  result.barrier_epochs = runner.epochs();

  // Harvest and merge in cell order — deterministic regardless of which
  // worker ran which domain.
  for (int c = 0; c < n_cells; ++c) {
    CellShard& shard = shards[static_cast<std::size_t>(c)];
    result.cells.push_back(shard.world->Collect());
    result.global_video_flows +=
        shard.pcrf.CountFlowsAllCells(FlowType::kVideo);
    result.global_data_flows +=
        shard.pcrf.CountFlowsAllCells(FlowType::kData);
    if (config.metrics != nullptr) {
      config.metrics->MergeFrom(shard.metrics,
                                "cell" + std::to_string(c) + ".");
    }
    if (config.bai_trace != nullptr) {
      config.bai_trace->AbsorbShard(shard.trace, c);
    }
    if (config.span_trace != nullptr) {
      config.span_trace->AbsorbShard(shard.spans);
    }
    if (config.health != nullptr) {
      config.health->AbsorbShard(shard.health, c);
    }
    if (config.qoe != nullptr) {
      config.qoe->AbsorbShard(shard.qoe, c);
    }
    if (config.flight != nullptr) {
      config.flight->AbsorbShard(shard.flight, c);
    }
  }
  if (config.bai_trace != nullptr) config.bai_trace->SortMergedRows();
  if (config.span_trace != nullptr) config.span_trace->SortMergedEvents();
  if (config.health != nullptr) config.health->SortMergedWarnings();
  if (config.flight != nullptr) config.flight->SortMergedEvents();

  return result;
}

}  // namespace flare
