// Multi-cell scenario runner: cells are jobs.
//
// Replicates one ScenarioConfig across n_cells eNodeBs, giving each cell
// its own Simulator, world (cell + transport + players + OneAPI
// controller) and PCRF shard. FLARE decides bitrates independently for
// each cell, so the cells exchange nothing during the run: the worlds are
// built on the caller in cell order, then each cell is one ThreadPool job
// that runs its world to the horizon (ScenarioWorld::Run, the same
// BAI-slice loop RunScenario uses), collects it and frees it. The
// core-wide flow counts are the sum of the shards at the horizon.
//
// The result is bit-identical for any worker count (workers=0 runs the
// same jobs in cell order on the caller): per-cell Rngs come from
// Rng::SplitStream(cell), cells never share mutable state, and per-cell
// metrics/trace shards are merged in cell order after the run
// (tests/determinism_test.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "scenario/scenario.h"

namespace flare {

struct MultiCellConfig {
  /// Template for every cell; `oneapi.cell_tag` is overwritten with the
  /// cell index, `metrics`/`bai_trace` are replaced by per-cell shards
  /// (merged into the fields below after the run), and the per-cell Rng
  /// is SplitStream(cell) of `cell.seed`.
  ScenarioConfig cell;
  int n_cells = 2;
  /// Worker threads; the pool is min(workers, n_cells) wide. 0 runs the
  /// cells in order on the caller.
  int workers = 0;

  // --- Merged observability (both may be null; null = disabled).
  /// Per-cell registries are folded in as "cell<i>.<name>". Not owned.
  MetricsRegistry* metrics = nullptr;
  /// Per-cell traces are absorbed with rows stamped by cell and sorted
  /// deterministically. Not owned.
  BaiTraceSink* bai_trace = nullptr;
  /// Per-cell span shards (pid = cell+1) are merged here in cell order.
  /// Not owned.
  SpanTracer* span_trace = nullptr;
  /// Per-cell health monitors, merged with warnings restamped by cell.
  /// Its WatchdogConfig seeds every shard monitor. Not owned.
  RunHealthMonitor* health = nullptr;
  /// Per-cell QoE engines (weights copied from this one), merged with
  /// sessions restamped by cell. Not owned.
  QoeAnalytics* qoe = nullptr;
  /// Per-cell flight recorders (capacity copied from this one), merged in
  /// cell order; the earliest shard trigger wins. Not owned.
  FlightRecorder* flight = nullptr;

  /// Live telemetry server (obs/telemetry_server.h). When set, each cell
  /// publishes a read-only copy of its shard's observers (under
  /// "cell<N>." like the post-run merge) after a BAI slice, at most every
  /// `telemetry_interval_ms` of wall clock. Shard observers are fed even
  /// when the merged sinks above are null, so live QoE/health/flight
  /// telemetry works without requesting end-of-run exports. Run bytes
  /// stay byte-identical with telemetry on or off. Not owned; must be
  /// Start()ed by the caller.
  TelemetryServer* telemetry = nullptr;
  double telemetry_interval_ms = 1000.0;
};

struct MultiCellResult {
  std::vector<ScenarioResult> cells;  // indexed by cell
  /// Flow counts summed over every cell's PCRF shard at the horizon —
  /// the view a core-network function has of the whole deployment.
  int global_video_flows = 0;
  int global_data_flows = 0;
  std::uint64_t barrier_epochs = 0;    // always 0; perfbench still reads it
  std::uint64_t mailbox_messages = 0;  // always 0; perfbench still reads it
  /// Wall-clock of the cell jobs (bench_fig9_scaling's scaling table).
  double wall_ms = 0.0;
};

MultiCellResult RunMultiCellScenario(const MultiCellConfig& config);

}  // namespace flare
