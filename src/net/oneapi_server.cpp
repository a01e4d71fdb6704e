#include "net/oneapi_server.h"

#include <optional>
#include <string>

#include "lte/tbs_table.h"
#include "net/messages.h"
#include "util/csv.h"
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
    if (!verdict.decision.admit) {
      const char* policy = AdmissionPolicyName(admission->config().policy);
      const double value = verdict.decision.value;
      admission_rejects_metric_.Add();
      if (flight_ != nullptr) {
        flight_->Record(ToSeconds(sim_.Now()), "admission_reject", id, -1,
                        value,
                        "{\"policy\":\"" + std::string(policy) + "\"}");
      }
      if (span_trace_ != nullptr) {
        span_trace_->Instant(
            kLaneControl, "churn", "admission_reject",
            static_cast<double>(sim_.Now()),
            "{\"flow\":" + std::to_string(id) + ",\"policy\":\"" +
                policy + "\",\"value\":" + FormatNumber(value) + "}");
      }
      if (admission_callback_) admission_callback_(id, false);
      return;
    }
    pcrf_.RegisterFlow(id, FlowType::kVideo, config_.cell_tag);
    plugins_[id] = plugin;
    // Reset the trace window so the first BAI measures a clean interval.
    if (cell_.HasFlow(id)) cell_.TakeWindow(id);
    if (admission != nullptr && flight_ != nullptr) {
      flight_->Record(ToSeconds(sim_.Now()), "admission_admit", id);
    }
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
                                BaiTraceSink* sink, SpanTracer* spans,
                                RunHealthMonitor* health) {
  trace_sink_ = sink;
  span_trace_ = spans;
  health_ = health;
  engine_.controller().SetSpanTracer(spans);
  bais_metric_ = MakeCounterHandle(registry, "oneapi.bais");
  assignments_metric_ = MakeCounterHandle(registry, "oneapi.assignments");
  admission_rejects_metric_ =
      MakeCounterHandle(registry, "oneapi.admission_rejects");
  solve_ms_metric_ = MakeHistogramHandle(registry, "oneapi.solve_ms");
  video_fraction_metric_ =
      MakeGaugeHandle(registry, "oneapi.video_fraction");
}

void OneApiServer::SetAnalytics(QoeAnalytics* qoe, FlightRecorder* flight) {
  qoe_ = qoe;
  flight_ = flight;
}

void OneApiServer::Start() {
  if (started_) return;
  started_ = true;
  sim_.Every(config_.bai, config_.bai, [this] { RunBai(); });
}

void OneApiServer::RunBai() {
  SpanScope bai_span(span_trace_, kLaneControl, "oneapi", "bai");
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
    bai_span.set_args(
        "{\"flows\":" + std::to_string(decision.assignments.size()) +
        ",\"video_fraction\":" + FormatNumber(decision.video_fraction) +
        ",\"feasible\":" + (decision.feasible ? "true" : "false") + "}");
  }

  // --- Enforce: GBR via PCEF at the eNodeB, rung via the UE plugin. The
  // assignment travels as a wire message and the plugin side decodes it.
  for (const RateAssignment& a : decision.assignments) {
    const RateAssignmentMsg msg = engine_.Message(a);
    pcef_.EnforceGbr(msg.flow, msg.gbr_bps);
    assignments_metric_.Add();
    if (a.level != a.previous_level) {
      if (qoe_ != nullptr) qoe_->OnRungChange(DecisionCauseName(a.cause));
      if (flight_ != nullptr) {
        flight_->Record(ToSeconds(sim_.Now()), "rung_change", a.id, -1,
                        static_cast<double>(a.level),
                        "{\"from\":" + std::to_string(a.previous_level) +
                            ",\"to\":" + std::to_string(a.level) +
                            ",\"cause\":\"" + DecisionCauseName(a.cause) +
                            "\"}");
      }
    }
    if (flight_ != nullptr) {
      flight_->Record(ToSeconds(sim_.Now()), "gbr_push", a.id, -1,
                      msg.gbr_bps);
    }
    if (span_trace_ != nullptr) {
      const double ts_us = static_cast<double>(sim_.Now());
      // Decision timeline: every enforced rung change is an instant with
      // its Algorithm 1 cause; the GBR push marks the PCEF enforcement.
      if (a.level != a.previous_level) {
        span_trace_->Instant(
            kLaneControl, "decision", "rung_change", ts_us,
            "{\"flow\":" + std::to_string(a.id) +
                ",\"from\":" + std::to_string(a.previous_level) +
                ",\"to\":" + std::to_string(a.level) + ",\"cause\":\"" +
                DecisionCauseName(a.cause) + "\"}");
      }
      span_trace_->Instant(
          kLaneControl, "oneapi", "gbr_push", ts_us,
          "{\"flow\":" + std::to_string(a.id) +
              ",\"gbr_kbps\":" + FormatNumber(msg.gbr_bps / 1000.0) + "}");
    }
    if (trace_sink_ != nullptr) {
      const BaiEngine::Flow& flow = *engine_.Find(a.id);
      BaiTraceRow row;
      row.t_s = ToSeconds(sim_.Now());
      row.cell = static_cast<int>(config_.cell_tag);
      row.flow = a.id;
      row.observed_bits_per_rb = flow.sample_bits_per_rb;
      row.smoothed_bits_per_rb = flow.smoothed_bits_per_rb;
      row.recommended_level = a.recommended_level;
      row.hysteresis_up = a.consecutive_up;
      row.enforced_level = a.level;
      row.rate_bps = a.rate_bps;
      row.gbr_bps = msg.gbr_bps;
      row.video_fraction = decision.video_fraction;
      row.solve_time_ms = solve_ms;
      row.feasible = decision.feasible;
      row.cause = DecisionCauseName(a.cause);
      trace_sink_->RecordBai(row);
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
