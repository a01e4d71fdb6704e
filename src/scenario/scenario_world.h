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

#include <cstdint>
#include <memory>
#include <vector>

#include "churn/admission.h"
#include "churn/session_churn.h"
#include "net/flare_plugin.h"
#include "net/oneapi_server.h"
#include "net/pcef.h"
#include "net/pcrf.h"
#include "obs/qoe_analytics.h"
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
  /// What a client runs. Churned arrivals are kVideo or kData.
  enum class ClientKind { kVideo, kConventional, kData };

  /// One client of the cell, static or churned, stored at its client id.
  /// Every resource it holds is released by Teardown() when a churned
  /// session departs or is refused; static clients live as long as the
  /// world. Members are declared so that destruction, like Teardown(),
  /// releases the session before the HTTP client before the plugin.
  struct Client {
    ClientKind kind = ClientKind::kVideo;
    UeId ue = 0;
    /// kInvalidFlow once torn down.
    FlowId flow = kInvalidFlow;
    /// Network-only ablation: the plugin the server talks to while the
    /// player runs its own ABR. Null when the plugin is the session's ABR.
    std::unique_ptr<FlarePlugin> orphan_plugin;
    std::unique_ptr<HttpClient> http;
    std::unique_ptr<VideoSession> session;  // null for data clients
    /// Has metrics to harvest: static clients from spawn, churned video
    /// once its player starts (FLARE video only after admission), and
    /// churned data never.
    bool started = false;
    /// Cursors of the 1 Hz sampler and the health scan.
    std::uint64_t series_tx_bytes = 0;
    double health_stall_s = 0.0;
    std::uint64_t health_tx_bytes = 0;
  };

  /// Per-BAI watchdog feed: player stall deltas, unspent GBR credit,
  /// data-flow service. Pure reads — attaching health never perturbs the
  /// experiment (the BAI trace stays byte-identical).
  void HealthScan();

  /// Builds client `id` of `kind`: its UE, flow, player and registration
  /// with the PCRF, the OneAPI server or the AVIS gateway. Static clients
  /// start on a staggered clock; churned ones start now, or on admission
  /// for FLARE video.
  void Spawn(ClientKind kind, int id);
  /// Builds the per-scheme client ABR for video client `id` (also the
  /// FESTIVE rng salt). Returns the server-visible plugin through
  /// `plugin_out` for FLARE schemes (null otherwise), keeping it in
  /// `client.orphan_plugin` when the player does not run it.
  std::unique_ptr<AbrAlgorithm> MakeVideoAbr(Client& client, int id,
                                             FlarePlugin** plugin_out);
  /// Registers `id` with the QoE engine and starts its player at `at`.
  void StartClient(int id, SimTime at, QoeSessionOrigin origin);
  /// Harvests client `id` if it started, deregisters it and releases its
  /// session, HTTP client, plugin, flow and UE, in that order.
  void Teardown(int id);
  /// Stops client `id`'s player and reports it: its ClientMetrics, QoE
  /// session end and PlayerSummary (video), or its run-average
  /// throughput (static data).
  void Harvest(int id);
  /// OneAPI admission outcome for `flow` (fires for every registration
  /// attempt; static flows are ignored — they start on their own clock).
  void OnAdmission(FlowId flow, bool admitted);

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

  /// Indexed by client id, the index the channel salt, the QoE session id
  /// and PlayerSummary::client share: video [0, n_video), data up to
  /// n_video + n_data, conventional up to n_static_, then churned
  /// arrivals in spawn order (engine session k is client n_static_ + k).
  std::vector<Client> clients_;
  const int n_static_;
  ScenarioResult result_;  // filled during the run and by Harvest()

  // --- Session churn (null unless config.churn.enabled).
  std::unique_ptr<AdmissionController> admission_;  // FLARE schemes only
  std::unique_ptr<SessionChurnEngine> churn_;
};

}  // namespace flare
