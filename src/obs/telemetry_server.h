// Live telemetry plane: opt-in background HTTP/1.1 exposition server.
//
// Endpoints:
//   GET /metrics  - Prometheus/OpenMetrics text rendered from the most
//                   recently published MetricsSnapshot plus the server's
//                   own counters (scrapes, events published/dropped,
//                   accepts refused for want of an fd — the listener
//                   then pauses until a connection closes).
//   GET /healthz  - JSON run health: 200 while every shard's
//                   RunHealthMonitor is clean, 503 once any watchdog
//                   warning has latched (or before the first publish),
//                   with progress and wall-clock rates.
//   GET /events   - chunked NDJSON live tail of flight-recorder events.
//
// Isolation contract: the server owns one background thread running an
// EpollLoop (src/netio); the simulation side only ever calls Publish()
// and PublishEvents(), which copy data under a mutex / into a bounded
// drop-oldest queue and return. Nothing here can block a simulation:
// a slow or stalled /events client fills its per-connection buffer, after
// which its events are dropped and counted (exported as
// flare_telemetry_events_dropped_total) — the run never waits. The
// server never writes back into any simulation state, so run bytes are
// identical with telemetry on or off (tests/determinism_test.cpp holds
// the plane to this).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace flare {

/// One consistent view of the run, assembled by TelemetryPublisher from
/// every cell's latest part (or by the daemon each tick) and handed to
/// the server whole.
struct TelemetrySnapshot {
  /// The slowest cell's clock: every cell has simulated at least this far.
  double sim_time_s = 0.0;
  double duration_s = 0.0;
  /// Share of the run simulated so far, from the mean of the cells'
  /// clocks: with fewer workers than cells the last cells start late, and
  /// the slowest clock would read 0 until they do.
  double progress_pct = 0.0;
  /// Progress ticks: publishes in simulator runs, BAIs in the daemon.
  std::uint64_t epochs = 0;
  /// Ticks and sim-seconds per wall second (simulator runs: averaged
  /// over the run so far; sim-seconds are the mean cell's).
  double epoch_rate_hz = 0.0;
  double sim_speedup = 0.0;
  int cells = 0;
  int workers = 0;
  bool healthy = true;
  std::uint64_t warnings = 0;
  std::vector<int> unhealthy_cells;
  std::string scenario;
  /// Merged registry view: coordinator metrics unprefixed, shard metrics
  /// under "cell<N>." — the same shape as the end-of-run export.
  MetricsSnapshot metrics;
};

class TelemetryServer {
 public:
  struct Options {
    /// Loopback by default: this is an operator's scrape port, not a
    /// public service.
    std::string bind_address = "127.0.0.1";
    /// 0 picks an ephemeral port; read the real one from port().
    std::uint16_t port = 0;
    /// Central pending-event queue (drop-oldest past this).
    std::size_t event_queue_capacity = 1024;
    /// Per-/events-connection outbox cap; a subscriber whose buffer is
    /// full loses events (counted) instead of growing memory.
    std::size_t connection_buffer_limit = 256 * 1024;
  };

  TelemetryServer();
  explicit TelemetryServer(Options options);
  ~TelemetryServer();
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Bind + listen + spawn the IO thread. False when the port cannot be
  /// bound (the server stays inert; Publish calls are cheap no-ops).
  bool Start();
  /// Graceful shutdown: closes every connection (subscribers get the
  /// terminal chunk) and joins the IO thread. Idempotent.
  void Stop();
  bool running() const;
  /// Bound port once Start() succeeded (resolves port 0).
  std::uint16_t port() const;

  /// Replace the served snapshot. Thread-safe, non-blocking (one mutex'd
  /// move); called from any cell's simulation thread.
  void Publish(TelemetrySnapshot snapshot);
  /// Append NDJSON event lines (each a complete line, no trailing
  /// newline) for the /events tail. Thread-safe; overflow drops the
  /// oldest queued lines and counts them.
  void PublishEvents(std::vector<std::string> lines);

  std::uint64_t scrapes() const;
  std::uint64_t events_published() const;
  std::uint64_t events_dropped() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Render the /healthz JSON body (separately testable).
std::string RenderHealthJson(const TelemetrySnapshot& snapshot,
                             bool have_snapshot);

}  // namespace flare
