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
      mpd_(MakeScenarioMpd(config_)),
      n_static_(config_.n_video + config_.n_data + config_.n_conventional) {
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

  // --- Clients, in the order their construction draws are taken: video,
  // conventional, then data (ids follow the table layout, not this order).
  clients_.resize(static_cast<std::size_t>(n_static_));
  for (int i = 0; i < config_.n_video; ++i) Spawn(ClientKind::kVideo, i);
  for (int i = 0; i < config_.n_conventional; ++i) {
    Spawn(ClientKind::kConventional, config_.n_video + config_.n_data + i);
  }
  for (int i = 0; i < config_.n_data; ++i) {
    Spawn(ClientKind::kData, config_.n_video + i);
  }

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
      const int id = static_cast<int>(clients_.size());
      Spawn(kind == SessionKind::kDataSession ? ClientKind::kData
                                              : ClientKind::kVideo,
            id);
      return id - n_static_;
    };
    host.destroy = [this](int session) { Teardown(n_static_ + session); };
    churn_ = std::make_unique<SessionChurnEngine>(
        sim_, config_.churn, std::move(host), rng_.Fork(0xc4a2),
        static_cast<int>(config_.oneapi.cell_tag));
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
      for (int id = 0; id < config_.n_video; ++id) {
        VideoPlayer& player = clients_[id].session->player();
        const auto& bitrates = player.segment_bitrates();
        sample.video_bitrate_bps.push_back(
            bitrates.empty() ? 0.0 : bitrates.back());
        // Advance the buffer model to "now" for an accurate reading.
        player.AdvanceTo(sim_.Now());
        sample.video_buffer_s.push_back(player.buffer_s());
      }
      for (int id = config_.n_video; id < config_.n_video + config_.n_data;
           ++id) {
        Client& client = clients_[id];
        const std::uint64_t total = cell_.total_tx_bytes(client.flow);
        sample.data_throughput_bps.push_back(
            static_cast<double>(total - client.series_tx_bytes) * 8.0);
        client.series_tx_bytes = total;
      }
      result_.series.push_back(std::move(sample));
    });
  }

  // --- Run-health watchdogs, scanned once per BAI.
  if (config_.health != nullptr) {
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
    Client& client, int id, FlarePlugin** plugin_out) {
  *plugin_out = nullptr;
  switch (config_.scheme) {
    case Scheme::kFlare:
    case Scheme::kFlareRelaxed: {
      auto plugin = std::make_unique<FlarePlugin>(client.flow);
      *plugin_out = plugin.get();
      return plugin;
    }
    case Scheme::kFestive:
      return std::make_unique<FestiveAbr>(
          config_.festive,
          rng_.Fork(0xfe57 + static_cast<std::uint64_t>(id)));
    case Scheme::kGoogle:
      return std::make_unique<GoogleAbr>(config_.google);
    case Scheme::kAvis:
      return std::make_unique<AvisClientAbr>();
    case Scheme::kFlareNetworkOnly: {
      // Network side runs full FLARE; the client ignores it and adapts
      // greedily on its own (AVIS-style).
      client.orphan_plugin = std::make_unique<FlarePlugin>(client.flow);
      *plugin_out = client.orphan_plugin.get();
      return std::make_unique<AvisClientAbr>();
    }
  }
  return std::make_unique<AvisClientAbr>();
}

void ScenarioWorld::Spawn(ClientKind kind, int id) {
  const bool churned = id >= n_static_;
  // Channel salts follow the client id. A static client's triangle offset
  // spreads over the static population, a churned one's over the ids so
  // far.
  const UeId ue = cell_.AddUe(
      MakeChannel(config_, id, std::max(n_static_, id + 1), rng_));
  if (churned) clients_.resize(static_cast<std::size_t>(id) + 1);
  Client& client = clients_[id];
  client.kind = kind;
  client.ue = ue;
  client.started = !churned;
  const FlowType type =
      kind == ClientKind::kVideo ? FlowType::kVideo : FlowType::kData;
  TcpFlow& tcp = transport_.CreateFlow(ue, type);
  client.flow = tcp.id();

  FlarePlugin* plugin = nullptr;
  if (kind != ClientKind::kData) {
    client.http = std::make_unique<HttpClient>(sim_, tcp);
    VideoSessionConfig session_config;
    session_config.player.max_buffer_s = config_.max_buffer_s;
    std::unique_ptr<AbrAlgorithm> abr;
    if (kind == ClientKind::kVideo) {
      if (config_.scheme == Scheme::kGoogle) {
        session_config.player.max_buffer_s = config_.google_max_buffer_s;
      }
      abr = MakeVideoAbr(client, id, &plugin);
    } else {
      // Conventional HAS players (Section V coexistence) run FESTIVE, and
      // the network services their flows as plain data: no GBR, no OneAPI
      // registration, no interference with FLARE's video class.
      abr = std::make_unique<FestiveAbr>(
          config_.festive,
          rng_.Fork(0xc0de + static_cast<std::uint64_t>(
                                 id - config_.n_video - config_.n_data)));
    }
    client.session = std::make_unique<VideoSession>(
        sim_, *client.http, mpd_, std::move(abr), session_config);
    VideoPlayer& player = client.session->player();
    if (kind == ClientKind::kVideo) {
      player.SetMetrics(config_.metrics);
      player.SetSpanTracer(config_.span_trace, id);
    }
    player.SetQoeAnalytics(config_.qoe, config_.flight, id);
  }

  if (plugin != nullptr) {
    // Opt-in client disclosures (Section II-B), indexed by static video
    // client, before registration.
    const auto i = static_cast<std::size_t>(id);
    if (id < config_.n_video) {
      if (i < config_.client_theta_bps.size() &&
          config_.client_theta_bps[i] > 0.0) {
        VideoUtilityParams utility = config_.oneapi.params.utility;
        utility.theta_bps = config_.client_theta_bps[i];
        plugin->SetUtility(utility);
      }
      if (i < config_.client_max_level.size() &&
          config_.client_max_level[i] >= 0) {
        plugin->SetMaxLevel(config_.client_max_level[i]);
      }
    }
    // The server holds a non-owning pointer to the plugin; Teardown()
    // disconnects it before the session or orphan_plugin that owns it
    // goes. Registration (and admission control) completes after the
    // OneAPI uplink delay.
    oneapi_.ConnectVideoClient(plugin, client.session->mpd());
  } else {
    pcrf_.RegisterFlow(client.flow, type, config_.oneapi.cell_tag);
  }
  if (config_.scheme == Scheme::kAvis) {
    if (kind == ClientKind::kVideo) {
      avis_gateway_.RegisterVideoFlow(client.flow, &client.session->mpd());
    } else if (kind == ClientKind::kData) {
      avis_gateway_.RegisterDataFlow(client.flow);
    }
  }

  if (kind == ClientKind::kData) {
    transport_.MakeGreedy(client.flow);  // iperf-style greedy TCP
  } else if (!churned) {
    // Stagger starts so initial requests do not all collide; conventional
    // players queue after the video ones.
    const int slot =
        kind == ClientKind::kConventional ? id - config_.n_data : id;
    const SimTime start =
        FromSeconds(0.5 * slot) + FromSeconds(rng_.Uniform(0.0, 0.25));
    StartClient(id, start,
                kind == ClientKind::kVideo ? QoeSessionOrigin::kStaticVideo
                                           : QoeSessionOrigin::kConventional);
  } else if (plugin == nullptr) {
    StartClient(id, sim_.Now(), QoeSessionOrigin::kDynamicVideo);
  }
  // A churned FLARE video client starts from OnAdmission.
}

void ScenarioWorld::StartClient(int id, SimTime at, QoeSessionOrigin origin) {
  Client& client = clients_[id];
  if (config_.qoe != nullptr) {
    config_.qoe->StartSession(id, client.flow, ToSeconds(at), origin);
  }
  client.session->Start(at);
  client.started = true;
}

void ScenarioWorld::OnAdmission(FlowId flow, bool admitted) {
  const auto it =
      std::find_if(clients_.begin() + n_static_, clients_.end(),
                   [flow](const Client& c) { return c.flow == flow; });
  if (it == clients_.end()) return;  // static, or already torn down
  const int id = static_cast<int>(it - clients_.begin());
  if (config_.qoe != nullptr) config_.qoe->OnAdmissionVerdict(admitted);
  if (admitted) {
    StartClient(id, sim_.Now(), QoeSessionOrigin::kDynamicVideo);
    return;
  }
  if (churn_ != nullptr) churn_->NotifyBlocked(id - n_static_);
  Teardown(id);
}

void ScenarioWorld::Teardown(int id) {
  Client& client = clients_[id];
  if (client.started) Harvest(id);
  if (IsFlare(config_.scheme) && client.kind == ClientKind::kVideo) {
    oneapi_.DisconnectVideoClient(client.flow);
  } else {
    pcrf_.DeregisterFlow(client.flow, config_.oneapi.cell_tag);
  }
  if (config_.scheme == Scheme::kAvis) avis_gateway_.Deregister(client.flow);
  // Order matters: the session (and its scheduled events) must go before
  // the HTTP client, the client before the flow, and the flow before the
  // UE slot is released back to the cell's free list.
  client.session.reset();
  client.http.reset();
  client.orphan_plugin.reset();
  if (transport_.Has(client.flow)) transport_.DestroyFlow(client.flow);
  cell_.ReleaseUe(client.ue);
  client.flow = kInvalidFlow;
  client.started = false;
}

void ScenarioWorld::Harvest(int id) {
  Client& client = clients_[id];
  if (client.kind == ClientKind::kData) {
    result_.data_throughput_bps.push_back(
        static_cast<double>(cell_.total_tx_bytes(client.flow)) * 8.0 /
        config_.duration_s);
    return;
  }
  client.session->Stop();
  VideoPlayer& player = client.session->player();
  player.AdvanceTo(sim_.Now());
  ClientMetrics m = ComputeClientMetrics(*client.session);
  if (config_.qoe != nullptr) {
    config_.qoe->EndSession(id, ToSeconds(sim_.Now()), player.played_s());
  }
  if (client.kind == ClientKind::kConventional) {
    result_.conventional.push_back(m);
    return;
  }
  if (config_.bai_trace != nullptr) {
    PlayerSummary summary;
    summary.cell = static_cast<int>(config_.oneapi.cell_tag);
    summary.client = id;
    summary.flow = client.flow;
    summary.avg_bitrate_bps = m.avg_bitrate_bps;
    summary.switches = m.bitrate_changes;
    summary.stalls = m.rebuffer_events;
    summary.stall_s = m.rebuffer_time_s;
    summary.qoe = m.qoe;
    summary.segments = m.segments;
    config_.bai_trace->RecordPlayer(summary);
  }
  (id < n_static_ ? result_.video : result_.churned).push_back(m);
}

void ScenarioWorld::HealthScan() {
  RunHealthMonitor& health = *config_.health;
  const double t_s = ToSeconds(sim_.Now());

  double shortfall_bytes = 0.0;
  double bai_gbr_bytes = 0.0;
  for (int id = 0; id < config_.n_video; ++id) {
    Client& client = clients_[id];
    VideoPlayer& player = client.session->player();
    player.AdvanceTo(sim_.Now());
    const double stall_s = player.rebuffer_time_s();
    health.OnPlayerScan(t_s, id, stall_s - client.health_stall_s);
    client.health_stall_s = stall_s;

    const FlowState& flow = cell_.flow(client.flow);
    if (!flow.has_gbr()) continue;
    shortfall_bytes += std::max(flow.gbr_credit_bytes, 0.0);
    bai_gbr_bytes += flow.gbr_bps / 8.0 * ToSeconds(config_.oneapi.bai);
  }
  health.OnGbrScan(t_s, shortfall_bytes, bai_gbr_bytes);

  for (int id = config_.n_video; id < config_.n_video + config_.n_data;
       ++id) {
    Client& client = clients_[id];
    const FlowState& flow = cell_.flow(client.flow);
    const std::uint64_t total = cell_.total_tx_bytes(client.flow);
    health.OnFlowScan(t_s, client.flow, flow.queued_bytes > 0,
                      total - client.health_tx_bytes);
    client.health_tx_bytes = total;
  }
}

ScenarioResult ScenarioWorld::Collect() {
  for (int id = 0; id < config_.n_video; ++id) Harvest(id);

  if (churn_ != nullptr) {
    // Churned sessions still streaming at the horizon are harvested in id
    // order (departed ones were harvested at teardown).
    for (int id = n_static_; id < static_cast<int>(clients_.size()); ++id) {
      if (clients_[id].started) Harvest(id);
    }
    result_.sessions_arrived = churn_->arrivals();
    result_.sessions_departed = churn_->departures();
    result_.sessions_blocked = churn_->blocked();
    result_.blocking_probability = churn_->blocking_probability();
    double qoe_sum = 0.0;
    for (const ClientMetrics& m : result_.churned) qoe_sum += m.qoe;
    if (!result_.churned.empty()) {
      result_.avg_admitted_qoe =
          qoe_sum / static_cast<double>(result_.churned.size());
    }
    MakeGaugeHandle(config_.metrics, "churn.admitted_qoe_avg")
        .Set(result_.avg_admitted_qoe);
  }

  if (config_.bai_trace != nullptr) config_.bai_trace->Flush(sim_.Now());
  cell_.FlushSpanWindow();

  for (int id = config_.n_video + config_.n_data; id < n_static_; ++id) {
    Harvest(id);
  }
  for (int id = config_.n_video; id < config_.n_video + config_.n_data;
       ++id) {
    Harvest(id);
  }

  ScenarioResult result = std::move(result_);
  std::vector<double> avg_bitrates;
  for (const ClientMetrics& m : result.video) {
    avg_bitrates.push_back(m.avg_bitrate_bps);
    result.avg_video_bitrate_bps += m.avg_bitrate_bps;
    result.avg_bitrate_changes += m.bitrate_changes;
    result.avg_rebuffer_s += m.rebuffer_time_s;
  }
  if (!result.video.empty()) {
    const auto n = static_cast<double>(result.video.size());
    result.avg_video_bitrate_bps /= n;
    result.avg_bitrate_changes /= n;
    result.avg_rebuffer_s /= n;
  }
  result.jain_avg_bitrate = JainIndex(avg_bitrates);

  for (const double bps : result.data_throughput_bps) {
    result.avg_data_throughput_bps += bps;
  }
  if (!result.data_throughput_bps.empty()) {
    result.avg_data_throughput_bps /=
        static_cast<double>(result.data_throughput_bps.size());
  }

  result.solve_times_ms = oneapi_.solve_times_ms();
  result.video_fractions = oneapi_.video_fractions();
  return result;
}

}  // namespace flare
