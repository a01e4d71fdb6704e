// OneAPI server — the network-side half of FLARE (Figure 1).
//
// Once per BAI it: (1) reads each video flow's RB & Rate Trace window from
// the eNodeB (the Communication Module path), computing the achieved
// bits-per-RB e_u = 8*b_u/n_u; (2) asks the PCRF how many data flows share
// the cell; (3) runs Algorithm 1 via the FlareRateController; and (4)
// enforces the result twice — pushing the GBR through the PCEF to the
// eNodeB scheduler, and pushing the chosen rung to each FLARE UE plugin so
// the client requests exactly the assigned bitrate. Both pushes cross the
// control plane with configurable latency.
//
// The control loop itself (validation, admission, smoothing, Algorithm 1,
// the GBR rule) is the shared BaiEngine (net/bai_engine.h). This adapter
// keeps transport, metrics and health; each decision's record goes to
// DecisionSinks (obs/bai_trace.h), which renders it into every sink. One
// server manages one cell; a multi-cell deployment runs one server per
// cell over a shared PCRF, each with its own PCEF and `cell_tag`, since
// "the bitrates are calculated independently for each network cell".
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "churn/admission.h"
#include "core/rate_controller.h"
#include "lte/cell.h"
#include "net/bai_engine.h"
#include "net/flare_plugin.h"
#include "net/pcef.h"
#include "net/pcrf.h"
#include "obs/bai_trace.h"
#include "obs/metrics.h"
#include "obs/watchdog.h"
#include "sim/simulator.h"

namespace flare {

struct OneApiConfig {
  /// Bitrate assignment interval.
  SimTime bai = kSecond;
  /// Control-plane latencies: UE plugin -> server, server -> UE/PCEF.
  SimTime uplink_latency = 20 * kMillisecond;
  SimTime downlink_latency = 20 * kMillisecond;
  /// GBR = headroom * assigned bitrate; slack covers HTTP/TCP overhead so
  /// a segment finishes within its own duration.
  double gbr_headroom = 1.1;
  /// EWMA weight of the newest bits-per-RB observation. Fast fading makes
  /// a single BAI's e_u noisy; feeding raw samples into problem (3)-(4)
  /// causes spurious capacity-exhaustion drops (Algorithm 1 applies drops
  /// immediately). Smoothing across BAIs keeps the capacity estimate honest
  /// without lagging genuine channel shifts. 1.0 disables smoothing
  /// (paper-literal previous-BAI-only behaviour).
  double efficiency_smoothing = 0.1;
  /// PCRF scope for this server's cell (multi-cell deployments register
  /// flows under their cell's tag; single-cell setups leave it at 0).
  Pcrf::CellTag cell_tag = 0;
  /// Record the solver wall-clock as 0 so traces and metrics are
  /// byte-stable across runs. The determinism & golden-trace harness
  /// turns this on; Figure 9 timing benches leave it off.
  bool deterministic_timing = false;
  FlareParams params;
};

class OneApiServer {
 public:
  OneApiServer(Simulator& sim, Cell& cell, Pcrf& pcrf, Pcef& pcef,
               const OneApiConfig& config);

  OneApiServer(const OneApiServer&) = delete;
  OneApiServer& operator=(const OneApiServer&) = delete;

  /// A FLARE plugin announces its session: after the uplink latency the
  /// server registers the flow (ladder + optional client constraints) and
  /// records it with the PCRF. `plugin` must outlive the server or be
  /// disconnected first. A DisconnectVideoClient issued while the
  /// registration is still in flight wins: the delayed registration is
  /// dropped (generation-guarded), so a flow torn down within the uplink
  /// latency window never reappears in the controller or PCRF.
  void ConnectVideoClient(FlarePlugin* plugin, const Mpd& mpd);
  void DisconnectVideoClient(FlowId id);

  /// Client pushes refreshed info mid-session (new cost cap, clickstream
  /// state, ...). Applied after the uplink latency; unknown flows are
  /// ignored (teardown race), and an update the solvers could not take is
  /// dropped, leaving the previous constraints in force.
  void UpdateClientInfo(FlowId id, const ClientInfo& info);

  /// Begin the BAI loop.
  void Start();

  /// Run one BAI synchronously (exposed for tests).
  void RunBai();

  FlareRateController& controller() { return engine_.controller(); }
  const FlareRateController& controller() const {
    return engine_.controller();
  }

  /// Whether `id` has a *landed* registration (an in-flight
  /// ConnectVideoClient still inside the uplink latency does not count).
  bool HasClient(FlowId id) const { return controller().HasFlow(id); }

  /// Connect attempts still inside the uplink-latency window. Bounded by
  /// the in-flight count — landed and disconnected flows leave no
  /// per-flow residue (the churn-leak regression checks this).
  std::size_t pending_connects() const { return connect_generation_.size(); }

  /// Attach an admission controller (not owned; null detaches). When set,
  /// every landing ConnectVideoClient is first offered to it with the
  /// candidate pinned at the lowest rung and a channel-based bits-per-RB
  /// estimate; a rejection drops the registration entirely (no
  /// controller/PCRF/client state). Each BAI refreshes the controller's
  /// per-flow estimates.
  void SetAdmissionController(AdmissionController* admission) {
    engine_.SetAdmission(admission);
  }

  /// Invoked when a ConnectVideoClient resolves: (flow, admitted). Fires
  /// with admitted=true after every successful registration — also with
  /// no admission controller attached — so dynamically spawned sessions
  /// can defer playback until their registration lands. Fires with
  /// admitted=false on an admission rejection, or on client info the
  /// solvers could not take (malformed wire message, bad ladder or
  /// utility), which leaves no controller/PCRF state either. Does NOT
  /// fire for connects cancelled by a disconnect.
  using AdmissionCallback = std::function<void(FlowId, bool)>;
  void SetAdmissionCallback(AdmissionCallback callback) {
    admission_callback_ = std::move(callback);
  }

  /// Solver wall-clock times, one per BAI, in milliseconds (Figure 9).
  const std::vector<double>& solve_times_ms() const {
    return solve_times_ms_;
  }
  /// Video RB fraction r chosen each BAI.
  const std::vector<double>& video_fractions() const {
    return video_fractions_;
  }

  /// Attach observability (any pointer may be null): the registry gets
  /// BAI counters and the solve-time histogram; the health monitor is fed
  /// each BAI's solver feasibility; `decisions` gets every flow's BAI
  /// decision and, with admission attached, every verdict, stamped with
  /// this server's cell. Its span tracer also gets BAI and solver spans.
  void SetObservers(MetricsRegistry* registry, RunHealthMonitor* health,
                    DecisionSinks decisions);

 private:
  /// Channel-based bits-per-RB at the UE's current MCS, for connects and
  /// idle BAIs (1.0 when the cell has no such flow).
  double NominalBitsPerRb(FlowId id) const;

  Simulator& sim_;
  Cell& cell_;
  Pcrf& pcrf_;
  Pcef& pcef_;
  OneApiConfig config_;
  BaiEngine engine_;
  /// Assignment delivery targets of the landed registrations.
  std::map<FlowId, FlarePlugin*> plugins_;
  /// In-flight connects only: each ConnectVideoClient stores a globally
  /// unique generation here and its delayed callback registers only if
  /// the entry still matches; DisconnectVideoClient erases the entry
  /// (cancelling the connect) and a landed callback erases its own, so
  /// the map cannot grow with churned flows. The server-wide counter
  /// (rather than a per-flow one) rules out generation reuse after an
  /// erase.
  std::map<FlowId, std::uint64_t> connect_generation_;
  std::uint64_t next_generation_ = 0;
  AdmissionCallback admission_callback_;
  std::vector<double> solve_times_ms_;
  std::vector<double> video_fractions_;
  bool started_ = false;

  RunHealthMonitor* health_ = nullptr;
  std::optional<DecisionSinks> decisions_;  // empty: no sink attached
  CounterHandle bais_metric_;
  CounterHandle assignments_metric_;
  CounterHandle admission_rejects_metric_;
  HistogramHandle solve_ms_metric_;
  GaugeHandle video_fraction_metric_;
};

}  // namespace flare
