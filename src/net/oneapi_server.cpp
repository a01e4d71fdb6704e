#include "net/oneapi_server.h"

#include <optional>
#include <string>

#include "lte/tbs_table.h"
#include "net/messages.h"
#include "util/logging.h"

namespace flare {

OneApiServer::OneApiServer(Simulator& sim, Cell& cell, Pcrf& pcrf,
                           Pcef& pcef, const OneApiConfig& config)
    : sim_(sim),
      cell_(cell),
      pcrf_(pcrf),
      pcef_(pcef),
      config_(config),
      engine_(config.params, config.efficiency_smoothing,
              config.gbr_headroom) {}

void OneApiServer::ConnectVideoClient(FlarePlugin* plugin, const Mpd& mpd) {
  // The client info crosses the operator API as a wire message; the
  // server trusts only what survives decoding.
  const std::string wire =
      EncodeClientInfo(plugin->BuildClientInfo(mpd));
  const FlowId id = plugin->flow();
  const std::uint64_t generation = ++next_generation_;
  connect_generation_[id] = generation;
  sim_.After(config_.uplink_latency, [this, plugin, wire, id, generation] {
    // A disconnect (or a newer connect) landed while this registration was
    // in flight: it is stale, and replaying it would resurrect the flow in
    // the controller/PCRF with a possibly dangling plugin pointer.
    const auto gen = connect_generation_.find(id);
    if (gen == connect_generation_.end() || gen->second != generation) {
      return;
    }
    // This attempt owns the entry; it is no longer in flight either way.
    connect_generation_.erase(gen);
    const std::optional<ClientInfo> info = DecodeClientInfo(wire);
    AdmissionController* admission = engine_.admission();
    BaiEngine::ConnectVerdict verdict;
    if (info) {
      // The channel is read for the connect estimate only when admission
      // prices it; any valid estimate serves the validation alone.
      verdict = engine_.Connect(
          *info, admission != nullptr ? NominalBitsPerRb(id) : 1.0,
          pcrf_.CountFlows(FlowType::kData, config_.cell_tag),
          static_cast<double>(cell_.num_rbs()) * 1000.0);
    }
    if (!info || verdict.defect != nullptr) {
      FLOG_WARN << "OneApiServer: dropping malformed client info";
      if (admission_callback_) admission_callback_(id, false);
      return;
    }
    if (admission != nullptr && decisions_) {
      decisions_->Render(
          sim_.Now(),
          AdmissionVerdict{id, verdict.decision.admit,
                           AdmissionPolicyName(admission->config().policy),
                           verdict.decision.value});
    }
    if (!verdict.decision.admit) {
      admission_rejects_metric_.Add();
      if (admission_callback_) admission_callback_(id, false);
      return;
    }
    pcrf_.RegisterFlow(id, FlowType::kVideo, config_.cell_tag);
    plugins_[id] = plugin;
    // Reset the trace window so the first BAI measures a clean interval.
    if (cell_.HasFlow(id)) cell_.TakeWindow(id);
    if (admission_callback_) admission_callback_(id, true);
  });
}

double OneApiServer::NominalBitsPerRb(FlowId id) const {
  if (!cell_.HasFlow(id)) return 1.0;
  return static_cast<double>(TbsBitsPerPrb(cell_.UeItbs(cell_.flow(id).ue)));
}

void OneApiServer::UpdateClientInfo(FlowId id, const ClientInfo& info) {
  const std::string wire = EncodeClientInfo(info);
  sim_.After(config_.uplink_latency, [this, id, wire] {
    const std::optional<ClientInfo> update = DecodeClientInfo(wire);
    if (!update) {
      FLOG_WARN << "OneApiServer: dropping malformed client-info update";
      return;
    }
    if (const char* defect = engine_.Refresh(id, *update)) {
      FLOG_WARN << "OneApiServer: dropping client-info update: " << defect;
    }
  });
}

void OneApiServer::DisconnectVideoClient(FlowId id) {
  connect_generation_.erase(id);  // cancel any in-flight ConnectVideoClient
  engine_.Remove(id);
  pcrf_.DeregisterFlow(id, config_.cell_tag);
  plugins_.erase(id);
}

void OneApiServer::SetObservers(MetricsRegistry* registry,
                                RunHealthMonitor* health,
                                DecisionSinks decisions) {
  health_ = health;
  decisions.cell = static_cast<int>(config_.cell_tag);
  decisions_.reset();
  if (decisions.any()) decisions_ = decisions;
  engine_.controller().SetSpanTracer(decisions.spans);
  bais_metric_ = MakeCounterHandle(registry, "oneapi.bais");
  assignments_metric_ = MakeCounterHandle(registry, "oneapi.assignments");
  admission_rejects_metric_ =
      MakeCounterHandle(registry, "oneapi.admission_rejects");
  solve_ms_metric_ = MakeHistogramHandle(registry, "oneapi.solve_ms");
  video_fraction_metric_ =
      MakeGaugeHandle(registry, "oneapi.video_fraction");
}

void OneApiServer::Start() {
  if (started_) return;
  started_ = true;
  sim_.Every(config_.bai, config_.bai, [this] { RunBai(); });
}

void OneApiServer::RunBai() {
  SpanScope bai_span(decisions_ ? decisions_->spans : nullptr, kLaneControl,
                     "oneapi", "bai");
  // --- Gather the RB/rate trace windows: e_u = 8 * b_u / n_u. A flow
  // whose bearer is already gone (teardown not yet reported) sits out.
  const bool observed =
      engine_.Gather([this](FlowId id, double) -> std::optional<double> {
        if (!cell_.HasFlow(id)) return std::nullopt;
        const RbRateWindow window = cell_.TakeWindow(id);
        if (window.rbs > 0) {
          return static_cast<double>(window.tx_bytes) * 8.0 /
                 static_cast<double>(window.rbs);
        }
        // Flow idle all BAI (e.g. buffer full): fall back to the channel's
        // nominal per-RB capacity at the current MCS.
        return NominalBitsPerRb(id);
      });
  if (!observed) return;

  const int n_data =
      pcrf_.CountFlows(FlowType::kData, config_.cell_tag);
  const double rb_rate = static_cast<double>(cell_.num_rbs()) * 1000.0;
  const BaiDecision decision = engine_.Decide(n_data, rb_rate);

  const double solve_ms =
      config_.deterministic_timing
          ? 0.0
          : static_cast<double>(decision.solve_time.count()) / 1e6;
  solve_times_ms_.push_back(solve_ms);
  video_fractions_.push_back(decision.video_fraction);
  bais_metric_.Add();
  solve_ms_metric_.Observe(solve_ms);
  video_fraction_metric_.Set(decision.video_fraction);
  if (health_ != nullptr) {
    health_->OnSolverResult(ToSeconds(sim_.Now()), decision.feasible);
  }
  if (bai_span.enabled()) {
    bai_span.set_args(BaiSpanArgs(decision.assignments.size(),
                                  decision.video_fraction,
                                  decision.feasible));
  }

  // --- Enforce: GBR via PCEF at the eNodeB, rung via the UE plugin. The
  // assignment travels as a wire message and the plugin side decodes it.
  for (const RateAssignment& a : decision.assignments) {
    const RateAssignmentMsg msg = engine_.Message(a);
    pcef_.EnforceGbr(msg.flow, msg.gbr_bps);
    assignments_metric_.Add();
    if (decisions_) {
      decisions_->Render(sim_.Now(), engine_.Event(decision, a, solve_ms));
    }
    const std::string wire = EncodeRateAssignment(msg);
    // Resolve the plugin at delivery time, not capture time: the client
    // may disconnect (and its plugin die) while the push is in flight.
    sim_.After(config_.downlink_latency, [this, wire] {
      const std::optional<RateAssignmentMsg> decoded =
          DecodeRateAssignment(wire);
      if (!decoded) return;
      const auto plugin = plugins_.find(decoded->flow);
      if (plugin == plugins_.end()) return;
      plugin->second->SetAssignedLevel(decoded->level);
    });
  }
}

}  // namespace flare
