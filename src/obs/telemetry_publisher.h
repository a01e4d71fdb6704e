// Periodic, non-perturbing bridge from the run's observers to the
// telemetry server.
//
// Every run advances each cell's world in BAI slices (ScenarioWorld::Run)
// and offers the publisher that cell's state after each slice, on the
// thread that owns the cell. Between slices the cell's observers are
// quiescent and owned by that thread, so rendering them needs no lock.
// The publisher renders the cell's *part* of the snapshot (a copy of its
// registry, its live QoE and health gauges, its new flight events), then,
// under one mutex, stores the part and publishes the snapshot assembled
// from every cell's latest part. Nothing the server thread touches
// aliases live simulation state, and the publisher never writes into any
// registry or engine, so run bytes are identical with telemetry on or
// off.
//
// Cost when disabled: MaybePublish is a single null check (no clock
// read) — bench_optimizer's BM_TelemetryOverhead holds it to the same
// order as the disabled flight-recorder path. When enabled but not yet
// due, the cost is one steady_clock read.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/qoe_analytics.h"
#include "obs/telemetry_server.h"
#include "obs/watchdog.h"

namespace flare {

/// Read-only view of one cell shard's observers (any may be null).
struct TelemetryShardView {
  const MetricsRegistry* metrics = nullptr;
  const QoeAnalytics* qoe = nullptr;
  const RunHealthMonitor* health = nullptr;
  const FlightRecorder* flight = nullptr;
  /// Prefix the shard registry's metric names get in the snapshot
  /// ("cell<N>." in multi-cell runs, "" single-cell — matching the
  /// end-of-run merge).
  std::string metrics_prefix;
};

class TelemetryPublisher {
 public:
  /// `server` may be null (telemetry disabled; every call is a no-op
  /// branch). `interval_ms` gates each cell's publishes on *wall* clock:
  /// slices end far faster than an operator can read, and wall gating
  /// keeps the cost independent of simulated-time scale.
  TelemetryPublisher(TelemetryServer* server, double interval_ms);

  void ConfigureRun(std::string scenario, double duration_s, int cells,
                    int workers);
  /// Register cell `cell`'s shard; cells are registered in order 0, 1, ...
  /// before the run starts. `cell` stamps the qoe.* gauges and flight
  /// events.
  void AddShard(TelemetryShardView shard, int cell);

  /// Offer cell `cell`'s state at `sim_time_s`, from the thread that owns
  /// the cell. Publishes when that cell's wall interval has elapsed, and
  /// always at the run's horizon so scrapers see the end state. Inline so
  /// the disabled path is visibly one predicted branch.
  void MaybePublish(int cell, double sim_time_s) {
    if (server_ == nullptr) return;
    Shard& shard = shards_[static_cast<std::size_t>(cell)];
    if (sim_time_s < duration_s_ &&
        std::chrono::steady_clock::now() < shard.next_due) {
      return;
    }
    Publish(shard, sim_time_s);
  }

 private:
  /// One cell's contribution to the served snapshot.
  struct Part {
    double sim_time_s = 0.0;
    bool healthy = true;
    std::uint64_t warnings = 0;
    MetricsSnapshot metrics;
  };
  struct Shard {
    TelemetryShardView view;
    int cell = 0;
    // Touched only by the thread that owns the cell.
    std::uint64_t next_event_seq = 0;
    std::chrono::steady_clock::time_point next_due;
    // Guarded by mu_.
    Part part;
  };

  void Publish(Shard& shard, double sim_time_s);

  TelemetryServer* server_;
  std::chrono::steady_clock::duration interval_;
  std::chrono::steady_clock::time_point start_;

  std::string scenario_;
  double duration_s_ = 0.0;
  int cells_ = 0;
  int workers_ = 0;
  std::vector<Shard> shards_;  // fixed once the run starts

  std::mutex mu_;
  std::uint64_t publishes_ = 0;  // guarded by mu_
};

/// Render one flight event as an NDJSON object (no trailing newline);
/// shared by the publisher and its tests.
std::string RenderFlightEventNdjson(const FlightEvent& event);

}  // namespace flare
