// One fully wired single-cell experiment "world": the cell, channels,
// transport, HAS sessions and control plane on a caller-owned Simulator.
// Every simulator run builds its worlds through this class and advances
// them through Run():
//   * RunScenario — one world, run on the caller;
//   * RunMultiCellScenario — one world per cell, each on its own
//     Simulator, each run as one ThreadPool job.
// Because both build the world identically (same Rng stream, same wiring
// order, same event-scheduling order) and advance it the same way, a
// multi-cell run is reproducible serial-vs-parallel down to the trace
// bytes.
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "churn/admission.h"
#include "churn/session_churn.h"
#include "net/flare_plugin.h"
#include "net/oneapi_server.h"
#include "net/pcef.h"
#include "net/pcrf.h"
#include "scenario/scenario.h"
#include "sim/simulator.h"
#include "transport/transport_host.h"

namespace flare {

class TelemetryPublisher;  // obs/telemetry_publisher.h

class ScenarioWorld {
 public:
  /// Builds the complete world for `config` on the caller's simulator,
  /// drawing every random decision from `rng` (callers pass Rng(seed) for
  /// a standalone run, or master.SplitStream(cell) for a sharded one).
  /// Flows register with `pcrf` under `config.oneapi.cell_tag`; `sim` and
  /// `pcrf` must outlive the world.
  ScenarioWorld(const ScenarioConfig& config, Simulator& sim, Pcrf& pcrf,
                Rng rng);
  /// Unbinds the span tracer's clock (it captures `this`).
  ~ScenarioWorld();

  ScenarioWorld(const ScenarioWorld&) = delete;
  ScenarioWorld& operator=(const ScenarioWorld&) = delete;

  /// Start the control plane, the optional 1 Hz series sampler, and the
  /// cell's TTI loop. Call once, before advancing the simulator.
  void Start();

  /// Advance the simulator to the configured horizon one BAI slice at a
  /// time, offering `publisher` cell `cell`'s state after every slice.
  /// Slicing adds no events, so run bytes match one RunUntil(horizon)
  /// with telemetry on or off. Call once, after Start().
  void Run(TelemetryPublisher& publisher, int cell);

  /// Harvest per-client metrics and FLARE outputs after the simulator has
  /// run to the configured horizon. Call once.
  ScenarioResult Collect();

  Cell& cell() { return cell_; }
  OneApiServer& oneapi() { return oneapi_; }

 private:
  /// A session created (and torn down) mid-run by the churn engine. Unlike
  /// the static population, every resource here — UE slot, transport flow,
  /// HTTP client, player, plugin — is reclaimed on departure.
  struct DynamicSession {
    SessionKind kind = SessionKind::kVideoSession;
    FlowId flow = kInvalidFlow;
    UeId ue = 0;
    std::unique_ptr<HttpClient> http;
    std::unique_ptr<VideoSession> session;
    /// Network-only ablation: the plugin the server talks to while the
    /// player runs its own ABR. Null when the plugin is the session's ABR.
    std::unique_ptr<FlarePlugin> orphan_plugin;
    /// The server-visible plugin (owned either by `session`'s ABR slot or
    /// by `orphan_plugin`); null for non-FLARE schemes and data sessions.
    FlarePlugin* plugin = nullptr;
    /// FLARE video sessions start only once the (delayed, admission-gated)
    /// OneAPI registration lands; everyone else starts at spawn.
    bool started = false;
  };

  /// Per-BAI watchdog feed: player stall deltas, unspent GBR credit,
  /// data-flow service. Pure reads — attaching health never perturbs the
  /// experiment (the BAI trace stays byte-identical).
  void HealthScan();

  /// Builds the per-scheme client ABR for one video session. `salt_index`
  /// feeds the FESTIVE rng fork (static clients pass their index; dynamic
  /// sessions pass a value beyond the static population). Exactly one of
  /// *plugin_out / *orphan_out is set for FLARE schemes.
  std::unique_ptr<AbrAlgorithm> MakeVideoAbr(
      FlowId flow, int salt_index, FlarePlugin** plugin_out,
      std::unique_ptr<FlarePlugin>* orphan_out);

  /// Churn-engine host hooks.
  int SpawnDynamicSession(SessionKind kind);
  void TeardownDynamicSession(int id, bool harvest);
  /// OneAPI admission outcome for `flow` (fires for every registration
  /// attempt; static flows are ignored — they start on their own clock).
  void OnAdmission(FlowId flow, bool admitted);
  /// Advances the player and appends this session's ClientMetrics to the
  /// churned-session results.
  void HarvestDynamicSession(int id, DynamicSession& session);

  ScenarioConfig config_;
  Simulator& sim_;
  Pcrf& pcrf_;
  Rng rng_;

  Cell cell_;
  TransportHost transport_;
  Pcef pcef_;
  OneApiServer oneapi_;
  AvisGateway avis_gateway_;
  Mpd mpd_;

  std::vector<std::unique_ptr<HttpClient>> https_;
  std::vector<std::unique_ptr<VideoSession>> sessions_;
  std::vector<FlowId> video_flows_;
  // Plugins for the network-only ablation: registered with the OneAPI
  // server (so the optimizer runs and GBRs are enforced) but never
  // consulted by the player.
  std::vector<std::unique_ptr<FlarePlugin>> orphan_plugins_;

  std::vector<std::unique_ptr<HttpClient>> conventional_https_;
  std::vector<std::unique_ptr<VideoSession>> conventional_sessions_;
  std::vector<FlowId> data_flows_;

  std::vector<std::uint64_t> last_data_bytes_;
  std::vector<double> last_health_stall_s_;
  std::vector<std::uint64_t> last_health_data_bytes_;
  ScenarioResult result_;  // series accumulate here during the run

  // --- Session churn (null / empty unless config.churn.enabled).
  std::unique_ptr<AdmissionController> admission_;  // FLARE schemes only
  std::unique_ptr<SessionChurnEngine> churn_;
  std::map<int, DynamicSession> dynamic_;    // live, by engine session id
  std::map<FlowId, int> dynamic_by_flow_;
  int next_dynamic_id_ = 0;
  std::vector<ClientMetrics> churned_metrics_;  // harvested on departure
};

}  // namespace flare
