// Scenario builder + runner: wires a complete FLARE/AVIS/FESTIVE/GOOGLE
// experiment (cell, channels, transport, HAS sessions, control plane) from
// a declarative config, runs it, and returns per-client metrics plus
// optional time series. Every bench and example drives experiments through
// this layer, so paper scenarios are reproduced from one code path.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "abr/avis.h"
#include "abr/festive.h"
#include "abr/google.h"
#include "churn/session_churn.h"
#include "core/rate_controller.h"
#include "has/metrics.h"
#include "net/oneapi_server.h"
#include "util/time.h"

namespace flare {

class TelemetryServer;  // obs/telemetry_server.h

/// Which rate-adaptation system runs the video flows.
enum class Scheme {
  kFlare,         // coordinated, exact/greedy discrete solver
  kFlareRelaxed,  // coordinated, continuous relaxation + round-down
  kFestive,       // client-side
  kGoogle,        // client-side (MPEG-DASH/Media Source demo rule)
  kAvis,          // network-side GBR/MBR, uncoordinated greedy client
  /// Ablation: FLARE's optimizer sets the GBRs, but no rung is pushed to
  /// the client, which runs a greedy AVIS-style adaptation instead —
  /// isolates the value of FLARE's client-side enforcement.
  kFlareNetworkOnly,
};

const char* SchemeName(Scheme scheme);

/// MAC scheduler selection; kAuto applies the paper wiring (two-phase GBR
/// on the testbed for GBR schemes, PF for client-side schemes, PSS in the
/// ns-3 setup).
enum class SchedulerKind { kAuto, kPf, kPss, kTwoPhaseGbr, kRoundRobin };

/// How UE channels evolve.
enum class ChannelKind {
  kStaticItbs,    // testbed static: fixed vendor iTbs knob
  kItbsTriangle,  // testbed dynamic: iTbs Override triangle with offsets
  kPlacedStatic,  // ns-3 static: random placement, pathloss + fading
  kMobile,        // ns-3 mobile: random waypoint (vehicular) + fading
};

struct ScenarioConfig {
  Scheme scheme = Scheme::kFlare;
  double duration_s = 600.0;
  std::uint64_t seed = 1;

  int n_video = 3;
  int n_data = 1;
  /// Conventional (non-FLARE) HAS players sharing the cell; serviced like
  /// data traffic, without bitrate guarantees (Section V's deployment
  /// story). They run FESTIVE and register with the PCRF as data flows.
  int n_conventional = 0;

  /// Opt-in client information (Section II-B), indexed by video client;
  /// shorter vectors leave the remaining clients undisclosed.
  /// Screen-size parameter theta_u disclosed to the OneAPI server
  /// (0 = not disclosed; larger screens need more rate).
  std::vector<double> client_theta_bps;
  /// Hard rung cap per client (device resolution / data-cost limit;
  /// -1 = none).
  std::vector<int> client_max_level;

  std::vector<double> ladder_kbps;   // empty => TestbedLadderKbps()
  double segment_duration_s = 2.0;
  /// VBR encoding spread (0 = CBR, the paper's setup).
  double vbr_sigma = 0.0;
  double max_buffer_s = 30.0;
  /// GOOGLE requests the next segment only below this buffer level
  /// (Section IV-A: 15 s in the static testbed, 40 s in the dynamic one).
  double google_max_buffer_s = 15.0;

  // --- Channel.
  ChannelKind channel = ChannelKind::kStaticItbs;
  int num_rbs = kDefaultNumRbs;
  /// Transport-block error rate with HARQ retransmission (0 = ideal PHY).
  double target_bler = 0.0;
  int static_itbs = 7;        // calibrated testbed operating point
  /// Stationary placement annulus (kPlacedStatic): bounds the near-far MCS
  /// spread across clients; the paper's near-1.0 fairness indices imply a
  /// narrow spread.
  double placement_min_radius_m = 600.0;
  double placement_max_radius_m = 1100.0;
  int triangle_lo_itbs = 1;   // dynamic scenario (paper: 1 -> 12 -> 1)
  int triangle_hi_itbs = 12;
  double triangle_period_s = 240.0;
  double area_m = 2000.0;     // Table III
  double min_speed_mps = 10.0;
  double max_speed_mps = 30.0;
  RadioConfig radio;

  /// true => testbed wiring (FLARE uses the femtocell two-phase GBR
  /// scheduler, client-side schemes plain PF); false => ns-3 wiring
  /// (everyone on the Priority Set Scheduler, Table III).
  bool testbed = true;
  /// Explicit scheduler override (ablation benches).
  SchedulerKind scheduler = SchedulerKind::kAuto;

  // --- Per-scheme knobs (Table IV defaults).
  FestiveConfig festive;
  GoogleAbrConfig google;
  AvisConfig avis;
  OneApiConfig oneapi;

  /// Session churn (arrivals/departures mid-run) + admission control.
  /// The n_video/n_data/n_conventional populations above stay as a static
  /// base load; churned sessions come and go on top of it. For kFlare
  /// under churn, the greedy solver is swapped for the concave-envelope
  /// sweep (BatchSolver). Churned sessions register with the PCRF, the
  /// OneAPI server or the AVIS gateway as static ones do, and deregister
  /// on departure.
  ChurnConfig churn;

  /// Optional override of the FLARE solver chosen by the scheme/churn
  /// wiring (greedy for kFlare, continuous for kFlareRelaxed, the batched
  /// sweep for kFlare under churn). Set to force one in every FLARE cell
  /// of the run — e.g. SolverMode::kGreedyDiscrete to keep a churned cell
  /// on greedy; non-FLARE schemes ignore it.
  std::optional<SolverMode> solver_override;

  /// Collect 1 Hz time series (Figures 4/5); off for CDF sweeps.
  bool sample_series = false;

  // --- Observability (both may be null; null = zero-cost disabled).
  /// Counter/gauge/histogram registry shared by the simulator, cell,
  /// OneAPI server, and players. Not owned; must outlive the run.
  MetricsRegistry* metrics = nullptr;
  /// Structured per-BAI / per-TTI / per-player trace sink. Not owned.
  BaiTraceSink* bai_trace = nullptr;
  /// Causal span tracer (Chrome trace-event JSON). The world binds its
  /// clock/pid/determinism on construction; pass one tracer per cell
  /// shard in multi-cell runs. Not owned.
  SpanTracer* span_trace = nullptr;
  /// Run-health watchdogs, scanned once per BAI. One monitor per cell
  /// shard in multi-cell runs. Not owned.
  RunHealthMonitor* health = nullptr;
  /// Online per-session QoE engine (bitrate, instability, stalls, startup
  /// delay, fairness, admitted-vs-blocked QoE). One engine per cell shard
  /// in multi-cell runs. Not owned.
  QoeAnalytics* qoe = nullptr;
  /// Black-box flight recorder: bounded ring of recent structured events,
  /// snapshotted on the first watchdog alarm. One recorder per cell shard
  /// in multi-cell runs. Not owned.
  FlightRecorder* flight = nullptr;
  /// Live telemetry server (obs/telemetry_server.h). When set, RunScenario
  /// publishes read-only snapshots of the attached observers at BAI
  /// boundaries, at most every `telemetry_interval_ms` of wall clock; run
  /// bytes stay identical to a telemetry-off run. Multi-cell runs wire
  /// this through MultiCellConfig instead (the per-cell copy is cleared).
  /// Not owned; must be Start()ed by the caller.
  TelemetryServer* telemetry = nullptr;
  double telemetry_interval_ms = 1000.0;
};

/// One sampled point of the Figure 4/5 time series.
struct SeriesSample {
  double t_s = 0.0;
  std::vector<double> video_bitrate_bps;  // currently selected, per client
  std::vector<double> video_buffer_s;
  std::vector<double> data_throughput_bps;  // over the last sample period
};

struct ScenarioResult {
  std::vector<ClientMetrics> video;          // one per video client
  /// Conventional HAS players (when n_conventional > 0), in order.
  std::vector<ClientMetrics> conventional;
  std::vector<double> data_throughput_bps;   // run-average per data client
  double jain_avg_bitrate = 1.0;
  double avg_video_bitrate_bps = 0.0;
  double avg_bitrate_changes = 0.0;
  double avg_rebuffer_s = 0.0;
  double avg_data_throughput_bps = 0.0;

  // FLARE-only outputs.
  std::vector<double> solve_times_ms;   // one per BAI (Figure 9)
  std::vector<double> video_fractions;  // r per BAI

  std::vector<SeriesSample> series;  // when sample_series

  // Churn outputs (zero / empty unless config.churn.enabled).
  std::uint64_t sessions_arrived = 0;
  std::uint64_t sessions_departed = 0;
  std::uint64_t sessions_blocked = 0;
  /// blocked / arrived — the Erlang-style primary metric of the churn
  /// experiments.
  double blocking_probability = 0.0;
  /// Per-session metrics of admitted dynamic video sessions, departed
  /// ones first (in departure order) then those still active at the end.
  std::vector<ClientMetrics> churned;
  /// Mean QoE over `churned` (0 when none completed a segment).
  double avg_admitted_qoe = 0.0;
};

/// Femtocell testbed preset (Section IV-A): 3 video + 1 data UE, 50-RB
/// 10 MHz cell, 8-rate testbed ladder, 2 s segments, static iTbs knob.
ScenarioConfig TestbedPreset(Scheme scheme);

/// ns-3 simulation preset (Table III): 8 stationary video clients,
/// 5 MHz / 25-RB cell, 6-rate ladder, 10 s segments, trace-based fading,
/// Priority Set Scheduler, 1200 s.
ScenarioConfig SimStaticPreset(Scheme scheme);

/// Mobile variant of the Table III preset: vehicular random waypoint in
/// the 2000 m x 2000 m area.
ScenarioConfig SimMobilePreset(Scheme scheme);

/// Build, run and tear down one scenario.
ScenarioResult RunScenario(const ScenarioConfig& config);

/// `config` with every observer pointer (metrics .. telemetry) cleared.
ScenarioConfig WithoutObservers(ScenarioConfig config);

/// Run every config in parallel, one job per config on a pool of
/// min(configs, hardware threads) workers, and return the results in
/// input order. Each result equals RunScenario on its config. Throws
/// std::invalid_argument if any config carries an observer pointer.
std::vector<ScenarioResult> RunMany(std::span<const ScenarioConfig> configs);

/// RunMany over `runs` copies of `config` with seeds seed, seed+1, ...
std::vector<ScenarioResult> RunMany(const ScenarioConfig& config, int runs);

}  // namespace flare
