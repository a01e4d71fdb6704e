#include "scenario/scenario_world.h"

#include <algorithm>
#include <utility>

#include "has/mpd.h"
#include "has/video_session.h"
#include "lte/gbr_scheduler.h"
#include "lte/pf_scheduler.h"
#include "lte/pss_scheduler.h"
#include "obs/telemetry_publisher.h"
#include "util/stats.h"

namespace flare {

namespace {

bool IsFlare(Scheme s) {
  return s == Scheme::kFlare || s == Scheme::kFlareRelaxed ||
         s == Scheme::kFlareNetworkOnly;
}

std::unique_ptr<Scheduler> MakeScheduler(const ScenarioConfig& config) {
  switch (config.scheduler) {
    case SchedulerKind::kPf:
      return std::make_unique<PfScheduler>();
    case SchedulerKind::kPss:
      return std::make_unique<PssScheduler>();
    case SchedulerKind::kTwoPhaseGbr:
      return std::make_unique<TwoPhaseGbrScheduler>();
    case SchedulerKind::kRoundRobin:
      return std::make_unique<RoundRobinScheduler>();
    case SchedulerKind::kAuto:
      break;
  }
  if (config.testbed) {
    // Femtocell wiring: FLARE added the two-phase GBR scheduler to the
    // eNB MAC; the client-side players ran over the legacy scheduler.
    if (IsFlare(config.scheme) || config.scheme == Scheme::kAvis) {
      return std::make_unique<TwoPhaseGbrScheduler>();
    }
    return std::make_unique<PfScheduler>();
  }
  // ns-3 wiring (Table III): Priority Set Scheduler for every scheme.
  return std::make_unique<PssScheduler>();
}

std::unique_ptr<ChannelModel> MakeChannel(const ScenarioConfig& config,
                                          int ue_index, int n_ues,
                                          Rng& rng) {
  switch (config.channel) {
    case ChannelKind::kStaticItbs:
      return std::make_unique<StaticItbsChannel>(config.static_itbs);
    case ChannelKind::kItbsTriangle: {
      // Per-UE phase offsets spread over the cycle (paper: "each UE starts
      // the cycle with a different offset").
      const SimTime period = FromSeconds(config.triangle_period_s);
      const SimTime offset =
          n_ues > 0 ? period * ue_index / n_ues : SimTime{0};
      return std::make_unique<ItbsOverrideChannel>(TriangleItbsSchedule(
          config.triangle_lo_itbs, config.triangle_hi_itbs, period, offset));
    }
    case ChannelKind::kPlacedStatic: {
      auto mobility = std::make_shared<StaticMobility>(
          RandomPositionInAnnulus(config.placement_min_radius_m,
                                  config.placement_max_radius_m, rng));
      return std::make_unique<FadedMobilityChannel>(
          std::move(mobility), config.radio,
          rng.Fork(0x5741 + static_cast<std::uint64_t>(ue_index)));
    }
    case ChannelKind::kMobile: {
      RandomWaypointConfig waypoint;
      waypoint.area_m = config.area_m;
      waypoint.min_speed_mps = config.min_speed_mps;
      waypoint.max_speed_mps = config.max_speed_mps;
      auto mobility = std::make_shared<RandomWaypointMobility>(
          waypoint, rng.Fork(0x4d0b + static_cast<std::uint64_t>(ue_index)));
      return std::make_unique<FadedMobilityChannel>(
          std::move(mobility), config.radio,
          rng.Fork(0xfade + static_cast<std::uint64_t>(ue_index)));
    }
  }
  return std::make_unique<StaticItbsChannel>(config.static_itbs);
}

CellConfig MakeCellConfig(const ScenarioConfig& config) {
  CellConfig cell_config;
  cell_config.num_rbs = config.num_rbs;
  cell_config.target_bler = config.target_bler;
  return cell_config;
}

OneApiConfig MakeOneApiConfig(const ScenarioConfig& config) {
  OneApiConfig oneapi_config = config.oneapi;
  oneapi_config.params.solver = config.scheme == Scheme::kFlareRelaxed
                                    ? SolverMode::kContinuousRelaxation
                                    : SolverMode::kGreedyDiscrete;
  // Churned FLARE cells run the exact sweep instead of greedy.
  if (config.churn.enabled &&
      oneapi_config.params.solver == SolverMode::kGreedyDiscrete) {
    oneapi_config.params.solver = SolverMode::kBatchedSweep;
  }
  // An explicit override beats both the scheme default and the churn
  // upgrade (e.g. greedy to opt a churned cell out of the sweep).
  if (config.solver_override) {
    oneapi_config.params.solver = *config.solver_override;
  }
  return oneapi_config;
}

Mpd MakeScenarioMpd(const ScenarioConfig& config) {
  const std::vector<double> ladder =
      config.ladder_kbps.empty() ? TestbedLadderKbps() : config.ladder_kbps;
  Mpd mpd = MakeMpd(ladder, config.segment_duration_s);
  mpd.vbr_sigma = config.vbr_sigma;
  return mpd;
}

}  // namespace

ScenarioWorld::ScenarioWorld(const ScenarioConfig& config, Simulator& sim,
                             Pcrf& pcrf, Rng rng)
    : config_(config),
      sim_(sim),
      pcrf_(pcrf),
      rng_(rng),
      cell_(sim_, MakeScheduler(config_), MakeCellConfig(config_),
            rng_.Fork(0xce11)),
      transport_(sim_, cell_),
      pcef_(sim_, cell_, config_.oneapi.downlink_latency),
      oneapi_(sim_, cell_, pcrf_, pcef_, MakeOneApiConfig(config_)),
      avis_gateway_(sim_, cell_, config_.avis),
      mpd_(MakeScenarioMpd(config_)) {
  sim_.SetMetrics(config_.metrics);
  cell_.SetMetrics(config_.metrics);
  cell_.SetTraceSink(config_.bai_trace);
  if (config_.span_trace != nullptr) {
    config_.span_trace->SetClock(
        [this] { return static_cast<double>(sim_.Now()); });
    config_.span_trace->set_default_pid(
        static_cast<int>(config_.oneapi.cell_tag) + 1);
    config_.span_trace->set_deterministic(config_.oneapi.deterministic_timing);
    cell_.SetSpanTracer(config_.span_trace);
  }
  if (config_.qoe != nullptr) {
    config_.qoe->set_cell(static_cast<int>(config_.oneapi.cell_tag));
  }
  if (config_.flight != nullptr) {
    config_.flight->set_cell(static_cast<int>(config_.oneapi.cell_tag));
  }
  if (config_.health != nullptr) {
    config_.health->set_cell(static_cast<int>(config_.oneapi.cell_tag));
    config_.health->SetObservers(config_.metrics, config_.span_trace,
                                 config_.flight);
  }
  oneapi_.SetObservers(config_.metrics, config_.health,
                       {.bai_trace = config_.bai_trace,
                        .spans = config_.span_trace,
                        .qoe = config_.qoe,
                        .flight = config_.flight});

  const Pcrf::CellTag cell_tag = config_.oneapi.cell_tag;
  const int n_ues =
      config_.n_video + config_.n_data + config_.n_conventional;

  // --- Video clients.
  for (int i = 0; i < config_.n_video; ++i) {
    const UeId ue = cell_.AddUe(MakeChannel(config_, i, n_ues, rng_));
    TcpFlow& tcp = transport_.CreateFlow(ue, FlowType::kVideo);
    video_flows_.push_back(tcp.id());
    https_.push_back(std::make_unique<HttpClient>(sim_, tcp));

    VideoSessionConfig session_config;
    session_config.player.max_buffer_s = config_.scheme == Scheme::kGoogle
                                             ? config_.google_max_buffer_s
                                             : config_.max_buffer_s;

    FlarePlugin* plugin = nullptr;
    std::unique_ptr<FlarePlugin> orphan;
    std::unique_ptr<AbrAlgorithm> abr =
        MakeVideoAbr(tcp.id(), i, &plugin, &orphan);
    if (orphan != nullptr) orphan_plugins_.push_back(std::move(orphan));

    auto session = std::make_unique<VideoSession>(
        sim_, *https_.back(), mpd_, std::move(abr), session_config);
    session->player().SetMetrics(config_.metrics);
    session->player().SetSpanTracer(config_.span_trace, i);
    session->player().SetQoeAnalytics(config_.qoe, config_.flight, i);

    if (plugin != nullptr) {
      // Opt-in client disclosures (Section II-B) before registration.
      if (i < static_cast<int>(config_.client_theta_bps.size()) &&
          config_.client_theta_bps[static_cast<std::size_t>(i)] > 0.0) {
        VideoUtilityParams utility = config_.oneapi.params.utility;
        utility.theta_bps =
            config_.client_theta_bps[static_cast<std::size_t>(i)];
        plugin->SetUtility(utility);
      }
      if (i < static_cast<int>(config_.client_max_level.size()) &&
          config_.client_max_level[static_cast<std::size_t>(i)] >= 0) {
        plugin->SetMaxLevel(
            config_.client_max_level[static_cast<std::size_t>(i)]);
      }
      // The plugin is owned by the session's ABR slot; the server holds a
      // non-owning pointer, and both are torn down together.
      oneapi_.ConnectVideoClient(plugin, session->mpd());
    } else {
      pcrf_.RegisterFlow(tcp.id(), FlowType::kVideo, cell_tag);
    }
    if (config_.scheme == Scheme::kAvis) {
      avis_gateway_.RegisterVideoFlow(tcp.id(), &session->mpd());
    }

    // Stagger starts so initial requests do not all collide.
    const SimTime start =
        FromSeconds(0.5 * i) + FromSeconds(rng_.Uniform(0.0, 0.25));
    if (config_.qoe != nullptr) {
      config_.qoe->StartSession(i, tcp.id(), ToSeconds(start),
                                QoeSessionOrigin::kStaticVideo);
    }
    session->Start(start);
    sessions_.push_back(std::move(session));
  }

  // --- Conventional HAS players (Section V coexistence): FESTIVE players
  // whose flows the network services as plain data — no GBR, no OneAPI
  // registration as video, no interference with FLARE's video class.
  for (int i = 0; i < config_.n_conventional; ++i) {
    const UeId ue = cell_.AddUe(MakeChannel(
        config_, config_.n_video + config_.n_data + i, n_ues, rng_));
    TcpFlow& tcp = transport_.CreateFlow(ue, FlowType::kData);
    conventional_https_.push_back(std::make_unique<HttpClient>(sim_, tcp));
    pcrf_.RegisterFlow(tcp.id(), FlowType::kData, cell_tag);

    VideoSessionConfig session_config;
    session_config.player.max_buffer_s = config_.max_buffer_s;
    auto session = std::make_unique<VideoSession>(
        sim_, *conventional_https_.back(), mpd_,
        std::make_unique<FestiveAbr>(
            config_.festive,
            rng_.Fork(0xc0de + static_cast<std::uint64_t>(i))),
        session_config);
    // Conventional players track QoE under their UE index, after the
    // video + data id ranges (same layout as their channel salt).
    const int session_id = config_.n_video + config_.n_data + i;
    session->player().SetQoeAnalytics(config_.qoe, config_.flight,
                                      session_id);
    const SimTime start = FromSeconds(0.5 * (config_.n_video + i)) +
                          FromSeconds(rng_.Uniform(0.0, 0.25));
    if (config_.qoe != nullptr) {
      config_.qoe->StartSession(session_id, tcp.id(), ToSeconds(start),
                                QoeSessionOrigin::kConventional);
    }
    session->Start(start);
    conventional_sessions_.push_back(std::move(session));
  }

  // --- Data clients (greedy iperf-style TCP).
  for (int i = 0; i < config_.n_data; ++i) {
    const UeId ue = cell_.AddUe(
        MakeChannel(config_, config_.n_video + i, n_ues, rng_));
    TcpFlow& tcp = transport_.CreateFlow(ue, FlowType::kData);
    data_flows_.push_back(tcp.id());
    pcrf_.RegisterFlow(tcp.id(), FlowType::kData, cell_tag);
    if (config_.scheme == Scheme::kAvis) {
      avis_gateway_.RegisterDataFlow(tcp.id());
    }
    transport_.MakeGreedy(tcp.id());
  }

  last_data_bytes_.assign(data_flows_.size(), 0);

  // --- Session churn: dynamic arrivals/departures on top of the static
  // population above. The engine draws from its own forked stream, so
  // enabling churn does not perturb any static construction draw.
  if (config_.churn.enabled) {
    if (IsFlare(config_.scheme)) {
      AdmissionConfig admission_config = config_.churn.admission;
      // The capacity/utility policies re-solve the cell's objective;
      // mirror the optimizer's parameters so "the cell's objective" means
      // the same thing in both places.
      admission_config.alpha = config_.oneapi.params.alpha;
      admission_config.max_video_fraction =
          config_.oneapi.params.max_video_fraction;
      admission_ = std::make_unique<AdmissionController>(admission_config);
      admission_->SetObservers(config_.metrics);
      oneapi_.SetAdmissionController(admission_.get());
      oneapi_.SetAdmissionCallback(
          [this](FlowId flow, bool admitted) { OnAdmission(flow, admitted); });
    }
    SessionChurnEngine::Host host;
    host.spawn = [this](SessionKind kind) {
      return SpawnDynamicSession(kind);
    };
    host.destroy = [this](int id) {
      TeardownDynamicSession(id, /*harvest=*/true);
    };
    churn_ = std::make_unique<SessionChurnEngine>(
        sim_, config_.churn, std::move(host), rng_.Fork(0xc4a2),
        static_cast<int>(cell_tag));
    churn_->SetObservers(config_.metrics, config_.span_trace, config_.health,
                         config_.oneapi.bai);
  }
}

ScenarioWorld::~ScenarioWorld() {
  if (config_.span_trace != nullptr) config_.span_trace->SetClock({});
}

void ScenarioWorld::Start() {
  // --- Control plane.
  if (IsFlare(config_.scheme)) oneapi_.Start();
  if (config_.scheme == Scheme::kAvis) avis_gateway_.Start();

  // --- Optional 1 Hz series sampler (Figures 4/5).
  if (config_.sample_series) {
    sim_.Every(kSecond, kSecond, [this] {
      SeriesSample sample;
      sample.t_s = ToSeconds(sim_.Now());
      for (const auto& session : sessions_) {
        const auto& bitrates = session->player().segment_bitrates();
        sample.video_bitrate_bps.push_back(
            bitrates.empty() ? 0.0 : bitrates.back());
        // Advance the buffer model to "now" for an accurate reading.
        session->player().AdvanceTo(sim_.Now());
        sample.video_buffer_s.push_back(session->player().buffer_s());
      }
      for (std::size_t d = 0; d < data_flows_.size(); ++d) {
        const std::uint64_t total = cell_.total_tx_bytes(data_flows_[d]);
        sample.data_throughput_bps.push_back(
            static_cast<double>(total - last_data_bytes_[d]) * 8.0);
        last_data_bytes_[d] = total;
      }
      result_.series.push_back(std::move(sample));
    });
  }

  // --- Run-health watchdogs, scanned once per BAI.
  if (config_.health != nullptr) {
    last_health_stall_s_.assign(sessions_.size(), 0.0);
    last_health_data_bytes_.assign(data_flows_.size(), 0);
    sim_.Every(config_.oneapi.bai, config_.oneapi.bai,
               [this] { HealthScan(); });
  }

  if (churn_ != nullptr) churn_->Start();
  cell_.Start();
}

void ScenarioWorld::Run(TelemetryPublisher& publisher, int cell) {
  const SimTime horizon = FromSeconds(config_.duration_s);
  const SimTime slice = std::max(config_.oneapi.bai, kTti);
  SimTime now = 0;
  do {  // at least once: a zero horizon still runs the events at t = 0
    now = std::min(now + slice, horizon);
    sim_.RunUntil(now);
    publisher.MaybePublish(cell, ToSeconds(now));
  } while (now < horizon);
}

std::unique_ptr<AbrAlgorithm> ScenarioWorld::MakeVideoAbr(
    FlowId flow, int salt_index, FlarePlugin** plugin_out,
    std::unique_ptr<FlarePlugin>* orphan_out) {
  *plugin_out = nullptr;
  orphan_out->reset();
  switch (config_.scheme) {
    case Scheme::kFlare:
    case Scheme::kFlareRelaxed: {
      auto plugin = std::make_unique<FlarePlugin>(flow);
      *plugin_out = plugin.get();
      return plugin;
    }
    case Scheme::kFestive:
      return std::make_unique<FestiveAbr>(
          config_.festive,
          rng_.Fork(0xfe57 + static_cast<std::uint64_t>(salt_index)));
    case Scheme::kGoogle:
      return std::make_unique<GoogleAbr>(config_.google);
    case Scheme::kAvis:
      return std::make_unique<AvisClientAbr>();
    case Scheme::kFlareNetworkOnly: {
      // Network side runs full FLARE; the client ignores it and adapts
      // greedily on its own (AVIS-style).
      *orphan_out = std::make_unique<FlarePlugin>(flow);
      *plugin_out = orphan_out->get();
      return std::make_unique<AvisClientAbr>();
    }
  }
  return std::make_unique<AvisClientAbr>();
}

int ScenarioWorld::SpawnDynamicSession(SessionKind kind) {
  const int id = next_dynamic_id_++;
  const int n_static =
      config_.n_video + config_.n_data + config_.n_conventional;
  // Channel/ABR salts beyond the static population keep dynamic fading and
  // FESTIVE streams distinct from every static UE's.
  const int ue_index = n_static + id;
  const UeId ue =
      cell_.AddUe(MakeChannel(config_, ue_index, ue_index + 1, rng_));

  DynamicSession dyn;
  dyn.kind = kind;
  dyn.ue = ue;

  if (kind == SessionKind::kDataSession) {
    TcpFlow& tcp = transport_.CreateFlow(ue, FlowType::kData);
    dyn.flow = tcp.id();
    pcrf_.RegisterFlow(dyn.flow, FlowType::kData, config_.oneapi.cell_tag);
    transport_.MakeGreedy(dyn.flow);
    dyn.started = true;
  } else {
    TcpFlow& tcp = transport_.CreateFlow(ue, FlowType::kVideo);
    dyn.flow = tcp.id();

    VideoSessionConfig session_config;
    session_config.player.max_buffer_s = config_.scheme == Scheme::kGoogle
                                             ? config_.google_max_buffer_s
                                             : config_.max_buffer_s;
    FlarePlugin* plugin = nullptr;
    std::unique_ptr<FlarePlugin> orphan;
    std::unique_ptr<AbrAlgorithm> abr =
        MakeVideoAbr(dyn.flow, ue_index, &plugin, &orphan);
    dyn.orphan_plugin = std::move(orphan);
    dyn.plugin = plugin;
    dyn.http = std::make_unique<HttpClient>(sim_, tcp);
    dyn.session = std::make_unique<VideoSession>(
        sim_, *dyn.http, mpd_, std::move(abr), session_config);
    dyn.session->player().SetMetrics(config_.metrics);
    dyn.session->player().SetSpanTracer(config_.span_trace, ue_index);
    dyn.session->player().SetQoeAnalytics(config_.qoe, config_.flight,
                                          ue_index);

    if (plugin != nullptr) {
      // Registration (and admission control) completes after the OneAPI
      // uplink delay; the session starts from OnAdmission.
      oneapi_.ConnectVideoClient(plugin, dyn.session->mpd());
    } else {
      pcrf_.RegisterFlow(dyn.flow, FlowType::kVideo,
                         config_.oneapi.cell_tag);
      if (config_.qoe != nullptr) {
        config_.qoe->StartSession(ue_index, dyn.flow, ToSeconds(sim_.Now()),
                                  QoeSessionOrigin::kDynamicVideo);
      }
      dyn.session->Start(sim_.Now());
      dyn.started = true;
    }
  }

  dynamic_by_flow_[dyn.flow] = id;
  dynamic_.emplace(id, std::move(dyn));
  return id;
}

void ScenarioWorld::OnAdmission(FlowId flow, bool admitted) {
  const auto it = dynamic_by_flow_.find(flow);
  if (it == dynamic_by_flow_.end()) return;  // static flow
  const int id = it->second;
  DynamicSession& dyn = dynamic_.at(id);
  if (config_.qoe != nullptr) config_.qoe->OnAdmissionVerdict(admitted);
  if (admitted) {
    if (config_.qoe != nullptr) {
      const int n_static =
          config_.n_video + config_.n_data + config_.n_conventional;
      config_.qoe->StartSession(n_static + id, flow, ToSeconds(sim_.Now()),
                                QoeSessionOrigin::kDynamicVideo);
    }
    dyn.session->Start(sim_.Now());
    dyn.started = true;
    return;
  }
  if (churn_ != nullptr) churn_->NotifyBlocked(id);
  TeardownDynamicSession(id, /*harvest=*/false);
}

void ScenarioWorld::TeardownDynamicSession(int id, bool harvest) {
  const auto it = dynamic_.find(id);
  if (it == dynamic_.end()) return;
  DynamicSession& dyn = it->second;

  if (dyn.session != nullptr) {
    dyn.session->Stop();
    if (harvest && dyn.started) HarvestDynamicSession(id, dyn);
  }
  if (dyn.plugin != nullptr) {
    oneapi_.DisconnectVideoClient(dyn.flow);
  } else {
    pcrf_.DeregisterFlow(dyn.flow, config_.oneapi.cell_tag);
  }
  // Order matters: the session (and its scheduled events) must go before
  // the HTTP client, the client before the flow, and the flow before the
  // UE slot is released back to the cell's free list.
  dyn.session.reset();
  dyn.http.reset();
  dyn.orphan_plugin.reset();
  if (transport_.Has(dyn.flow)) transport_.DestroyFlow(dyn.flow);
  cell_.ReleaseUe(dyn.ue);
  dynamic_by_flow_.erase(dyn.flow);
  dynamic_.erase(it);
}

void ScenarioWorld::HarvestDynamicSession(int id, DynamicSession& dyn) {
  dyn.session->player().AdvanceTo(sim_.Now());
  ClientMetrics m = ComputeClientMetrics(*dyn.session);
  if (config_.qoe != nullptr) {
    const int n_static =
        config_.n_video + config_.n_data + config_.n_conventional;
    config_.qoe->EndSession(n_static + id, ToSeconds(sim_.Now()),
                            dyn.session->player().played_s());
  }
  if (config_.bai_trace != nullptr) {
    PlayerSummary summary;
    summary.cell = static_cast<int>(config_.oneapi.cell_tag);
    // Churned sessions report after the static client id space.
    summary.client = config_.n_video + config_.n_data +
                     config_.n_conventional + id;
    summary.flow = dyn.flow;
    summary.avg_bitrate_bps = m.avg_bitrate_bps;
    summary.switches = m.bitrate_changes;
    summary.stalls = m.rebuffer_events;
    summary.stall_s = m.rebuffer_time_s;
    summary.qoe = m.qoe;
    summary.segments = m.segments;
    config_.bai_trace->RecordPlayer(summary);
  }
  churned_metrics_.push_back(std::move(m));
}

void ScenarioWorld::HealthScan() {
  RunHealthMonitor& health = *config_.health;
  const double t_s = ToSeconds(sim_.Now());

  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    VideoPlayer& player = sessions_[i]->player();
    player.AdvanceTo(sim_.Now());
    const double stall_s = player.rebuffer_time_s();
    health.OnPlayerScan(t_s, static_cast<int>(i),
                        stall_s - last_health_stall_s_[i]);
    last_health_stall_s_[i] = stall_s;
  }

  double shortfall_bytes = 0.0;
  double bai_gbr_bytes = 0.0;
  for (FlowId id : video_flows_) {
    if (!cell_.HasFlow(id)) continue;
    const FlowState& flow = cell_.flow(id);
    if (!flow.has_gbr()) continue;
    shortfall_bytes += std::max(flow.gbr_credit_bytes, 0.0);
    bai_gbr_bytes += flow.gbr_bps / 8.0 * ToSeconds(config_.oneapi.bai);
  }
  health.OnGbrScan(t_s, shortfall_bytes, bai_gbr_bytes);

  for (std::size_t d = 0; d < data_flows_.size(); ++d) {
    const FlowId id = data_flows_[d];
    if (!cell_.HasFlow(id)) continue;
    const FlowState& flow = cell_.flow(id);
    const std::uint64_t total = cell_.total_tx_bytes(id);
    health.OnFlowScan(t_s, id, flow.queued_bytes > 0,
                      total - last_health_data_bytes_[d]);
    last_health_data_bytes_[d] = total;
  }
}

ScenarioResult ScenarioWorld::Collect() {
  ScenarioResult result = std::move(result_);

  std::vector<double> avg_bitrates;
  for (std::size_t i = 0; i < sessions_.size(); ++i) {
    const auto& session = sessions_[i];
    session->player().AdvanceTo(sim_.Now());
    ClientMetrics m = ComputeClientMetrics(*session);
    if (config_.qoe != nullptr) {
      config_.qoe->EndSession(static_cast<int>(i), ToSeconds(sim_.Now()),
                              session->player().played_s());
    }
    avg_bitrates.push_back(m.avg_bitrate_bps);
    result.avg_video_bitrate_bps += m.avg_bitrate_bps;
    result.avg_bitrate_changes += m.bitrate_changes;
    result.avg_rebuffer_s += m.rebuffer_time_s;
    if (config_.bai_trace != nullptr) {
      PlayerSummary summary;
      summary.cell = static_cast<int>(config_.oneapi.cell_tag);
      summary.client = static_cast<int>(i);
      summary.flow = video_flows_[i];
      summary.avg_bitrate_bps = m.avg_bitrate_bps;
      summary.switches = m.bitrate_changes;
      summary.stalls = m.rebuffer_events;
      summary.stall_s = m.rebuffer_time_s;
      summary.qoe = m.qoe;
      summary.segments = m.segments;
      config_.bai_trace->RecordPlayer(summary);
    }
    result.video.push_back(m);
  }

  if (churn_ != nullptr) {
    // Dynamic sessions still streaming at the horizon are harvested in
    // session-id order (departed ones were harvested at teardown).
    for (auto& [id, dyn] : dynamic_) {
      if (dyn.session != nullptr && dyn.started) {
        dyn.session->Stop();
        HarvestDynamicSession(id, dyn);
      }
    }
    result.sessions_arrived = churn_->arrivals();
    result.sessions_departed = churn_->departures();
    result.sessions_blocked = churn_->blocked();
    result.blocking_probability = churn_->blocking_probability();
    result.churned = std::move(churned_metrics_);
    double qoe_sum = 0.0;
    for (const ClientMetrics& m : result.churned) qoe_sum += m.qoe;
    if (!result.churned.empty()) {
      result.avg_admitted_qoe =
          qoe_sum / static_cast<double>(result.churned.size());
    }
    MakeGaugeHandle(config_.metrics, "churn.admitted_qoe_avg")
        .Set(result.avg_admitted_qoe);
  }

  if (config_.bai_trace != nullptr) config_.bai_trace->Flush(sim_.Now());
  cell_.FlushSpanWindow();
  if (!result.video.empty()) {
    const auto n = static_cast<double>(result.video.size());
    result.avg_video_bitrate_bps /= n;
    result.avg_bitrate_changes /= n;
    result.avg_rebuffer_s /= n;
  }
  result.jain_avg_bitrate = JainIndex(avg_bitrates);

  for (std::size_t i = 0; i < conventional_sessions_.size(); ++i) {
    const auto& session = conventional_sessions_[i];
    session->player().AdvanceTo(sim_.Now());
    if (config_.qoe != nullptr) {
      config_.qoe->EndSession(
          config_.n_video + config_.n_data + static_cast<int>(i),
          ToSeconds(sim_.Now()), session->player().played_s());
    }
    result.conventional.push_back(ComputeClientMetrics(*session));
  }

  for (FlowId id : data_flows_) {
    const double bps = static_cast<double>(cell_.total_tx_bytes(id)) * 8.0 /
                       config_.duration_s;
    result.data_throughput_bps.push_back(bps);
    result.avg_data_throughput_bps += bps;
  }
  if (!data_flows_.empty()) {
    result.avg_data_throughput_bps /=
        static_cast<double>(data_flows_.size());
  }

  result.solve_times_ms = oneapi_.solve_times_ms();
  result.video_fractions = oneapi_.video_fractions();
  return result;
}

}  // namespace flare
