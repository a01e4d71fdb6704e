// Deterministic load generator for the networked OneAPI control plane.
//
// The simulator side already knows how to produce realistic session
// workloads — churn/session_churn draws Poisson/lognormal
// arrival-and-hold schedules from one explicit Rng. The load generator
// reuses exactly that engine, but offline: BuildSchedule() runs it on a
// throwaway Simulator to precompute every arrival and departure time, and
// Run() then replays the schedule against a live flare_oneapid over real
// sockets on a (scaled) wall clock. One seed fully determines who
// connects when, with which efficiency, and for how long — so two runs
// against the same server configuration exercise identical workloads.
//
// Per session the generator connects, sends ClientInfo + an initial
// FlowStatsReport, and then ping-pongs: every received kAssignment is
// answered with a fresh stats report, so each flow contributes one e_u
// sample per BAI exactly like a femtocell's Statistics Reporter. Each
// assignment's turnaround (receive time minus the moment this session's
// current sample became available) is recorded; the distribution's
// p50/p95/p99 are the control plane's SLO numbers, dominated by the BAI
// wait (EXPERIMENTS.md maps them back to the paper's cadence).
// kOverload before a welcome counts the session as blocked — the
// admission controller's answer, measured from the client side.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace flare {

struct LoadGenOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Total sessions to offer (churn max_arrivals).
  std::uint64_t sessions = 100;
  /// Poisson arrival rate and mean (lognormal) holding time, in
  /// *schedule* seconds — wall time divides both by time_scale.
  double arrival_rate_per_s = 10.0;
  double mean_hold_s = 2.0;
  double lognormal_sigma = 1.0;
  std::uint64_t seed = 1;
  /// Replay speedup: wall seconds = schedule seconds / time_scale.
  double time_scale = 1.0;
  /// Ladder offered by every session (Table III simulation ladder, bps).
  std::vector<double> ladder_bps = {100e3, 250e3, 500e3,
                                    1000e3, 2000e3, 3000e3};
  /// Per-session bits-per-RB efficiencies cycle through this list, so a
  /// deterministic mix of good and bad channels hits the solver. Values
  /// are reported as tx_bytes=e, rbs=8 => e_u = 8*e/8 = e, exact.
  std::vector<double> efficiencies = {80.0, 120.0, 160.0, 220.0};
  /// Abort the replay after this much wall time (hung-server guard).
  double max_wall_s = 120.0;
  /// Attach a trace context (svc/frame.h) to every stats report and
  /// record a client-side span per echoed assignment. Old daemons ignore
  /// nothing — the extension is opt-in per frame — but only a PR-10+
  /// daemon echoes srx/stx back.
  bool trace = false;
  /// Write the client-side spans as Chrome trace JSON here after the run
  /// (implies trace). tools/flare_trace merges this with the daemon's
  /// trace_json= output into one Perfetto timeline.
  std::string trace_json;
};

struct LoadGenResult {
  /// True when the replay completed (not aborted by max_wall_s) and
  /// every admitted session saw a clean lifecycle.
  bool completed = false;
  std::uint64_t attempted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t blocked = 0;   // kOverload before welcome
  std::uint64_t departed = 0;  // clean kBye teardowns
  std::uint64_t assignments = 0;
  std::uint64_t connect_failures = 0;
  std::uint64_t protocol_errors = 0;
  /// Assignments that carried the matching trace-context echo (0 with
  /// tracing off or against a pre-extension daemon).
  std::uint64_t traced = 0;
  /// Echoes with a trace id we never sent / no longer expect.
  std::uint64_t trace_mismatches = 0;
  double wall_s = 0.0;
  /// Exact quantiles over every assignment's turnaround, microseconds
  /// (0 when no assignments were received).
  double turnaround_p50_us = 0.0;
  double turnaround_p95_us = 0.0;
  double turnaround_p99_us = 0.0;
  double blocking_rate = 0.0;  // blocked / attempted
  /// Offered session rate actually achieved, sessions per wall second.
  double session_rate_per_s = 0.0;

  /// Export as svc.oneapi.* gauges/counters for BenchJsonWriter /
  /// flare_report (metrics.gauges.svc.oneapi.assign_turnaround.p99_us is
  /// a default SLO watch).
  void ExportTo(MetricsRegistry* registry) const;
};

class LoadGenerator {
 public:
  explicit LoadGenerator(LoadGenOptions options);

  /// One precomputed lifecycle event (seconds on the schedule clock).
  struct Event {
    double t_s = 0.0;
    bool arrival = true;
    int session = 0;
  };

  /// Precompute the churned schedule (pure: no sockets touched). Exposed
  /// so tests can assert determinism without a server.
  std::vector<Event> BuildSchedule() const;

  /// Replay the schedule against the live server on one EpollLoop on the
  /// calling thread. Blocks until the replay ends or max_wall_s passes;
  /// returns the measured result.
  LoadGenResult Run();

 private:
  LoadGenOptions options_;
};

}  // namespace flare
