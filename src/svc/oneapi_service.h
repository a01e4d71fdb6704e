// Standalone networked OneAPI control plane.
//
// OneApiService is the real-socket counterpart of net/oneapi_server: both
// are transport adapters over the same BaiEngine (net/bai_engine.h), so
// validation, admission (churn/admission), the e_u EWMA, the observation
// build and gbr = rate * gbr_headroom are one implementation. Here the
// sessions arrive as TCP connections instead of direct method calls, and
// the controller defaults to kBatchedSweep. One background thread runs a
// netio EpollLoop carrying the listener, every session connection, and a
// timerfd that fires the periodic BAI tick; each tick's assignment
// fan-out is split into slices that a small thread pool writes while that
// thread waits. The public surface (Start/Stop/TriggerTick/counters) is
// thread-safe.
//
// Protocol (svc/frame.h framing over the net/messages.h codec):
//
//   client                               server
//   ------ kClientInfo (EncodeClientInfo) ----->   admission decision
//   <----- kWelcome  "flow=N"  ----------------    (or kOverload + close)
//   ------ kStatsReport (EncodeStatsReport) --->   per-BAI e_u sample
//   <----- kAssignment (EncodeRateAssignment) -    every BAI tick, fanned
//   ------ kBye ------------------------------->   clean teardown
//
// Only the e_u source differs from the simulator: each tick samples a
// session's latest stats report (e_u = 8*tx_bytes/rbs), else its standing
// estimate, else `default_bits_per_rb`. So an assignment stream observed
// on the wire is value-identical to an in-process run over the same
// schedule (tests/oneapi_service_test.cpp holds the two byte-equal
// through the shared codec, across refreshes, departures and admission
// verdicts).
//
// Overload behaviour is load-shedding, never latency collapse: arrivals
// beyond max_sessions or rejected by the admission policy get a typed
// kOverload frame and a graceful close (both counted); per-connection
// outboxes are bounded, so a slow client loses its assignment frames
// (counted) instead of stalling the BAI tick for everyone else. Out of
// fds, the listener pauses (svc.oneapi.accept_fd_exhausted) instead of
// spinning, and re-arms when a connection closes or at the next tick.
//
// Tick cost: in the steady state each assignment is encoded in place and
// written with one send(), whichever slice writes it, and the loop makes
// no epoll_ctl (svc.oneapi.writes, svc.oneapi.epoll_ctl; stage times in
// svc.oneapi.tick.{gather,fanout,publish}_us). DESIGN.md §5n.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "churn/admission.h"
#include "core/rate_controller.h"
#include "obs/metrics.h"
#include "svc/request_trace.h"

namespace flare {

class FlightRecorder;
class TelemetryServer;

struct OneApiServiceOptions {
  /// Loopback by default — this is an operator control-plane port.
  std::string bind_address = "127.0.0.1";
  /// 0 picks an ephemeral port; read the real one from port().
  std::uint16_t port = 0;
  /// BAI period in wall-clock milliseconds; 0 disables the timer (ticks
  /// then come only from TriggerTick(), which deterministic tests use).
  int bai_ms = 1000;
  /// Algorithm 1 parameters. The batched SoA solver is the service
  /// default: it is bit-exact vs the sweep and built for many flows.
  FlareParams params = BatchedParams();
  static FlareParams BatchedParams() {
    FlareParams params;
    params.solver = SolverMode::kBatchedSweep;
    return params;
  }
  double gbr_headroom = 1.1;
  /// EWMA weight of the newest bits-per-RB sample (see OneApiConfig).
  double efficiency_smoothing = 0.1;
  /// Cell RB budget: rb_rate = num_rbs * 1000 (1 ms TTIs).
  int num_rbs = 50;
  /// Data flows sharing the cell (the PCRF answer in-simulator; a static
  /// knob for the standalone daemon).
  int n_data_flows = 0;
  /// Connect-time bits-per-RB estimate for admission, and the BAI
  /// observation fallback before a session's first stats report (the
  /// in-simulator server reads the channel's nominal capacity here; the
  /// daemon has no channel, so the operator configures it).
  double default_bits_per_rb = 100.0;
  AdmissionConfig admission;
  /// Hard session cap ahead of the admission policy; 0 = unlimited.
  std::size_t max_sessions = 0;
  /// Per-connection outbox cap: a session whose buffer is full loses its
  /// assignment frames (counted) instead of stalling the tick.
  std::size_t connection_buffer_limit = 256 * 1024;
  /// >0: shrink accepted sockets' SO_SNDBUF so tests can saturate a slow
  /// client without queueing megabytes in the kernel.
  int send_buffer_bytes = 0;
  /// Fan-out slices per tick: each BAI's assignments are split into this
  /// many contiguous runs, written in parallel while the loop thread
  /// waits. 0 derives it per tick: min(hardware threads - 1,
  /// ceil(assignments / 256)), at least 1 (DESIGN.md §5n). Tests pin it.
  int fanout_slices = 0;
  /// Report solver wall-clock as 0 (byte-stable exports in tests).
  bool deterministic_timing = false;
  /// Optional live telemetry plane (not owned): every BAI tick publishes
  /// a snapshot, so /metrics, /healthz and flare_top work on the daemon
  /// exactly as they do on a simulation run.
  TelemetryServer* telemetry = nullptr;
  /// Scenario tag for telemetry/health output.
  std::string scenario = "oneapid";
  /// When non-empty, server-side request tracing (svc/request_trace.h) is
  /// on: every admitted request and BAI tick records a phase timeline,
  /// svc.oneapi.stage.* histograms + quantile gauges appear in the
  /// registry, and the Perfetto JSON is written here at Stop(). Empty
  /// (the default) keeps the request path trace-free: no clock reads, no
  /// spans, and wire bytes identical to the pre-tracing protocol.
  std::string trace_json;
  /// Tracer tuning (event cap, worst-K exemplar window).
  RequestTracerOptions trace;
  /// Slow-request exemplar sink (not owned; may be null). Only read when
  /// tracing is enabled.
  FlightRecorder* flight_recorder = nullptr;
};

class OneApiService {
 public:
  explicit OneApiService(OneApiServiceOptions options);
  ~OneApiService();
  OneApiService(const OneApiService&) = delete;
  OneApiService& operator=(const OneApiService&) = delete;

  /// Bind + listen + spawn the IO thread (and arm the BAI timer when
  /// bai_ms > 0). False when the port cannot be bound.
  bool Start();
  /// Graceful shutdown: every open session gets a kOverload
  /// reason=shutdown frame (best effort), connections close, the IO
  /// thread joins. Idempotent.
  void Stop();
  bool running() const;
  std::uint16_t port() const;

  /// Run one BAI tick on the IO thread and wait for it to finish.
  /// Deterministic tests drive the cadence with this (bai_ms = 0).
  void TriggerTick();

  /// Snapshot of the service registry (svc.oneapi.* instruments plus the
  /// admission controller's counters). Thread-safe.
  MetricsSnapshot SnapshotMetrics() const;

  // --- Thread-safe progress counters (tests/poll loops) -----------------
  std::uint64_t connections_accepted() const;
  std::uint64_t infos_received() const;
  std::uint64_t stats_received() const;
  std::uint64_t bais() const;
  std::uint64_t assignments_sent() const;
  std::uint64_t assignments_dropped() const;
  std::uint64_t admission_rejects() const;
  std::uint64_t overload_rejects() const;
  std::uint64_t sessions() const;
  /// IO callbacks the service's event loop has run (a busy-loop probe).
  std::uint64_t loop_dispatches() const;
  /// Requests finalized by the tracer (0 when tracing is off). Like the
  /// other counters, safe from any thread.
  std::uint64_t traced_requests() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace flare
