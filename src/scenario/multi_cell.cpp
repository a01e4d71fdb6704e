#include "scenario/multi_cell.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/pcrf.h"
#include "obs/telemetry_publisher.h"
#include "scenario/scenario_world.h"
#include "sim/simulator.h"
#include "util/thread_pool.h"

namespace flare {

namespace {

/// Everything one cell owns. Shard observers exist even when the merged
/// sinks are disabled — a world's pointers must stay valid for its
/// lifetime and the shards are cheap when unused.
struct CellShard {
  CellShard(const WatchdogConfig& watchdog, QoeEngineWeights qoe_weights,
            std::size_t flight_capacity)
      : health(watchdog), qoe(qoe_weights), flight(flight_capacity) {}

  Simulator sim;  // outlives `world`, whose events it holds
  Pcrf pcrf;      // this cell's flows, tagged with the cell index
  MetricsRegistry metrics;
  BaiTraceSink trace;
  SpanTracer spans;
  RunHealthMonitor health;
  QoeAnalytics qoe;
  FlightRecorder flight;
  std::unique_ptr<ScenarioWorld> world;
  ScenarioResult result;
};

}  // namespace

MultiCellResult RunMultiCellScenario(const MultiCellConfig& config) {
  const int n_cells = std::max(config.n_cells, 1);
  const int workers = std::max(config.workers, 0);

  const Rng master(config.cell.seed);
  // Shard observers are treated as enabled whenever the telemetry server
  // is attached so mid-run QoE/health/event tailing works even without
  // end-of-run export sinks.
  const bool telemetry_on = config.telemetry != nullptr;
  TelemetryPublisher publisher(config.telemetry,
                               config.telemetry_interval_ms);
  publisher.ConfigureRun(std::string(SchemeName(config.cell.scheme)) + " x" +
                             std::to_string(n_cells),
                         config.cell.duration_s, n_cells, workers);
  // Worlds are built here, in cell order. deque: shard addresses must
  // survive emplace_back (worlds hold pointers into their shard).
  std::deque<CellShard> shards;
  for (int c = 0; c < n_cells; ++c) {
    CellShard& shard = shards.emplace_back(
        config.health != nullptr ? config.health->config() : WatchdogConfig{},
        config.qoe != nullptr ? config.qoe->weights() : QoeEngineWeights{},
        config.flight != nullptr ? config.flight->capacity()
                                 : FlightRecorder::kDefaultCapacity);

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
    // The run's publisher covers every cell.
    cell_config.telemetry = nullptr;

    shard.world = std::make_unique<ScenarioWorld>(
        cell_config, shard.sim, shard.pcrf,
        master.SplitStream(static_cast<std::uint64_t>(c)));
    shard.world->Start();
    publisher.AddShard({&shard.metrics, &shard.qoe, &shard.health,
                        &shard.flight, "cell" + std::to_string(c) + "."},
                       c);
  }

  // One job per cell: run its world to the horizon, collect it and free
  // it while other cells still run. The cells share nothing, so any
  // thread may run any job.
  std::vector<std::function<void()>> jobs;
  for (int c = 0; c < n_cells; ++c) {
    jobs.emplace_back([&shards, &publisher, c] {
      CellShard& shard = shards[static_cast<std::size_t>(c)];
      shard.world->Run(publisher, c);
      shard.result = shard.world->Collect();
      shard.world.reset();
    });
  }
  const auto wall_start = std::chrono::steady_clock::now();
  if (workers == 0) {
    for (auto& job : jobs) job();
  } else {
    ThreadPool pool(std::min(workers, n_cells));
    pool.RunAll(std::move(jobs));
  }
  const auto wall_end = std::chrono::steady_clock::now();

  MultiCellResult result;
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       wall_end - wall_start)
                       .count();

  // Merge in cell order — deterministic regardless of which worker ran
  // which cell.
  for (int c = 0; c < n_cells; ++c) {
    CellShard& shard = shards[static_cast<std::size_t>(c)];
    result.cells.push_back(std::move(shard.result));
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
