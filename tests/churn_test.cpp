// Tests for the session-churn subsystem: engine lifecycle/determinism,
// admission policies, churn-enabled scenarios, and regression tests for
// the teardown paths (greedy timers, UE slot release, connect bookkeeping,
// mid-run session destruction) that used to leak per-flow state.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "abr/google.h"
#include "churn/admission.h"
#include "churn/session_churn.h"
#include "core/optimizer.h"
#include "has/video_session.h"
#include "lte/gbr_scheduler.h"
#include "lte/pf_scheduler.h"
#include "net/oneapi_server.h"
#include "net/pcef.h"
#include "obs/metrics.h"
#include "net/pcrf.h"
#include "scenario/scenario.h"
#include "scenario/scenario_world.h"
#include "sim/simulator.h"
#include "transport/http.h"
#include "transport/transport_host.h"
#include "util/rng.h"

namespace flare {
namespace {

// ---------------------------------------------------------------- engine

/// Records every spawn/destroy with its timestamp; sessions get ids 0..n.
struct ScriptedHost {
  explicit ScriptedHost(Simulator& sim) : sim(sim) {}
  Simulator& sim;
  std::vector<std::string> events;
  int next_id = 0;
  int spawn_result_override = 1;  // < 0 => fail every spawn

  SessionChurnEngine::Host Hooks() {
    SessionChurnEngine::Host host;
    host.spawn = [this](SessionKind kind) {
      std::ostringstream line;
      line << ToSeconds(sim.Now()) << " spawn "
           << (kind == SessionKind::kVideoSession ? 'v' : 'd');
      events.push_back(line.str());
      if (spawn_result_override < 0) return -1;
      return next_id++;
    };
    host.destroy = [this](int id) {
      std::ostringstream line;
      line << ToSeconds(sim.Now()) << " destroy " << id;
      events.push_back(line.str());
    };
    return host;
  }
};

ChurnConfig EngineConfig() {
  ChurnConfig config;
  config.enabled = true;
  config.arrival_rate_per_s = 0.5;
  config.mean_hold_s = 5.0;
  config.data_fraction = 0.3;
  return config;
}

TEST(ChurnEngine, ScheduleIsDeterministicAcrossReruns) {
  std::vector<std::string> first;
  for (int run = 0; run < 2; ++run) {
    Simulator sim;
    ScriptedHost host(sim);
    SessionChurnEngine engine(sim, EngineConfig(), host.Hooks(), Rng(42));
    engine.Start();
    sim.RunUntil(FromSeconds(120.0));
    ASSERT_GT(host.events.size(), 10u);
    if (run == 0) {
      first = host.events;
    } else {
      EXPECT_EQ(first, host.events);
    }
  }
}

TEST(ChurnEngine, LifecycleInvariantsHold) {
  Simulator sim;
  ScriptedHost host(sim);
  SessionChurnEngine engine(sim, EngineConfig(), host.Hooks(), Rng(7));
  engine.Start();
  sim.RunUntil(FromSeconds(200.0));
  EXPECT_GT(engine.arrivals(), 0u);
  EXPECT_GT(engine.departures(), 0u);
  EXPECT_EQ(engine.blocked(), 0u);
  EXPECT_EQ(engine.arrivals(),
            engine.departures() + engine.active());
  EXPECT_EQ(engine.blocking_probability(), 0.0);
  // Both kinds showed up (data_fraction = 0.3).
  bool saw_video = false;
  bool saw_data = false;
  for (const std::string& e : host.events) {
    if (e.find("spawn v") != std::string::npos) saw_video = true;
    if (e.find("spawn d") != std::string::npos) saw_data = true;
  }
  EXPECT_TRUE(saw_video);
  EXPECT_TRUE(saw_data);
}

TEST(ChurnEngine, SynchronousSpawnFailureCountsAsBlocked) {
  Simulator sim;
  ScriptedHost host(sim);
  host.spawn_result_override = -1;
  SessionChurnEngine engine(sim, EngineConfig(), host.Hooks(), Rng(9));
  engine.Start();
  sim.RunUntil(FromSeconds(60.0));
  EXPECT_GT(engine.arrivals(), 0u);
  EXPECT_EQ(engine.blocked(), engine.arrivals());
  EXPECT_EQ(engine.active(), 0u);
  EXPECT_EQ(engine.departures(), 0u);
  EXPECT_EQ(engine.blocking_probability(), 1.0);
  for (const std::string& e : host.events) {
    EXPECT_EQ(e.find("destroy"), std::string::npos) << e;
  }
}

TEST(ChurnEngine, NotifyBlockedForgetsTheSession) {
  Simulator sim;
  ScriptedHost host(sim);
  ChurnConfig config = EngineConfig();
  config.data_fraction = 0.0;
  SessionChurnEngine engine(sim, config, host.Hooks(), Rng(11));
  engine.Start();
  // Step in small increments to catch session 0 right at its arrival,
  // then refuse it post-hoc (the admission path: the connect lands and is
  // rejected shortly after the spawn).
  while (engine.arrivals() == 0 && ToSeconds(sim.Now()) < 60.0) {
    sim.RunUntil(sim.Now() + FromSeconds(0.01));
  }
  ASSERT_GT(engine.active(), 0u);
  engine.NotifyBlocked(0);
  EXPECT_EQ(engine.blocked(), 1u);
  engine.NotifyBlocked(0);  // idempotent
  EXPECT_EQ(engine.blocked(), 1u);
  sim.RunUntil(FromSeconds(120.0));
  // Session 0 was forgotten: its queued departure must not destroy it.
  for (const std::string& e : host.events) {
    EXPECT_EQ(e.find("destroy 0"), std::string::npos) << e;
  }
  EXPECT_EQ(engine.arrivals(),
            engine.departures() + engine.blocked() + engine.active());
}

TEST(ChurnEngine, MaxArrivalsCapsTheRun) {
  Simulator sim;
  ScriptedHost host(sim);
  ChurnConfig config = EngineConfig();
  config.max_arrivals = 5;
  SessionChurnEngine engine(sim, config, host.Hooks(), Rng(3));
  engine.Start();
  sim.RunUntil(FromSeconds(600.0));
  EXPECT_EQ(engine.arrivals(), 5u);
}

TEST(ChurnEngine, LognormalProcessesStayDeterministic) {
  ChurnConfig config = EngineConfig();
  config.arrival_process = ChurnProcess::kLognormal;
  config.hold_process = ChurnProcess::kLognormal;
  config.lognormal_sigma = 1.5;
  std::vector<std::string> first;
  for (int run = 0; run < 2; ++run) {
    Simulator sim;
    ScriptedHost host(sim);
    SessionChurnEngine engine(sim, config, host.Hooks(), Rng(21));
    engine.Start();
    sim.RunUntil(FromSeconds(300.0));
    ASSERT_GT(engine.arrivals(), 0u);
    if (run == 0) {
      first = host.events;
    } else {
      EXPECT_EQ(first, host.events);
    }
  }
}

// ------------------------------------------------------------- admission

OptFlow MakeAdmissionFlow(double bits_per_rb) {
  OptFlow flow;
  flow.ladder_bps = {500'000.0, 1'000'000.0, 2'000'000.0};
  flow.bits_per_rb = bits_per_rb;
  flow.min_level = 0;
  flow.max_level = 2;
  return flow;
}

AdmissionRequest MakeRequest(FlowId id, double rb_rate = 50'000.0) {
  AdmissionRequest request;
  request.flow = id;
  request.candidate = MakeAdmissionFlow(200.0);
  request.n_data_flows = 1;
  request.rb_rate = rb_rate;
  return request;
}

TEST(Admission, AdmitAllAdmitsEverything) {
  AdmissionController controller;
  for (FlowId id = 1; id <= 20; ++id) {
    const AdmissionDecision decision = controller.Decide(MakeRequest(id));
    EXPECT_TRUE(decision.admit);
    controller.OnAdmitted(id, MakeAdmissionFlow(200.0));
  }
  EXPECT_EQ(controller.admitted(), 20u);
  EXPECT_EQ(controller.rejected(), 0u);
  EXPECT_EQ(controller.blocking_probability(), 0.0);
}

TEST(Admission, CapacityThresholdRejectsAtTheKnee) {
  // Floor cost per flow: 500 Kbit/s at 200 bits/RB = 2500 RB/s, which is
  // 5% of the 50k RB/s budget. Threshold 0.2 admits exactly 4 flows.
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kCapacityThreshold;
  config.capacity_threshold = 0.2;
  AdmissionController controller(config);

  for (FlowId id = 1; id <= 4; ++id) {
    const AdmissionDecision decision = controller.Decide(MakeRequest(id));
    EXPECT_TRUE(decision.admit) << "flow " << id;
    controller.OnAdmitted(id, MakeAdmissionFlow(200.0));
  }
  const AdmissionDecision fifth = controller.Decide(MakeRequest(5));
  EXPECT_FALSE(fifth.admit);
  EXPECT_GT(fifth.value, 0.2);
  EXPECT_EQ(controller.rejected(), 1u);
  EXPECT_DOUBLE_EQ(controller.blocking_probability(), 1.0 / 5.0);

  // A departure frees capacity for the next arrival.
  controller.OnDeparted(2);
  EXPECT_TRUE(controller.Decide(MakeRequest(6)).admit);
}

TEST(Admission, DecideIsPureUntilOnAdmitted) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kCapacityThreshold;
  config.capacity_threshold = 0.2;
  AdmissionController controller(config);
  const AdmissionDecision a = controller.Decide(MakeRequest(1));
  const AdmissionDecision b = controller.Decide(MakeRequest(1));
  EXPECT_EQ(a.admit, b.admit);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(controller.admitted_flows(), 0u);
}

TEST(Admission, UtilityDropSolvesWithTheCandidatePinned) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kUtilityDrop;
  config.objective_floor = -1e18;  // any feasible solution passes
  AdmissionController controller(config);

  const AdmissionDecision ok = controller.Decide(MakeRequest(1));
  EXPECT_TRUE(ok.admit);
  controller.OnAdmitted(1, MakeAdmissionFlow(200.0));

  // Infeasible budget: even the all-floor assignment does not fit.
  const AdmissionDecision broke = controller.Decide(MakeRequest(2, 100.0));
  EXPECT_FALSE(broke.admit);

  // Feasible but below a demanding floor: rejected on objective.
  AdmissionConfig strict = config;
  strict.objective_floor = 1e18;
  AdmissionController strict_controller(strict);
  EXPECT_FALSE(strict_controller.Decide(MakeRequest(3)).admit);
}

TEST(Admission, EstimateRefreshChangesTheDecision) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kCapacityThreshold;
  config.capacity_threshold = 0.2;
  AdmissionController controller(config);
  for (FlowId id = 1; id <= 4; ++id) {
    controller.OnAdmitted(id, MakeAdmissionFlow(200.0));
  }
  EXPECT_FALSE(controller.Decide(MakeRequest(9)).admit);
  // Channels improved: the same set now costs a quarter of the budget it
  // did, so the candidate fits.
  for (FlowId id = 1; id <= 4; ++id) controller.OnEstimate(id, 800.0);
  EXPECT_TRUE(controller.Decide(MakeRequest(9)).admit);
}

TEST(Admission, NonFiniteEstimateIsRefused) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kCapacityThreshold;
  config.capacity_threshold = 0.2;
  AdmissionController controller(config);
  for (FlowId id = 1; id <= 4; ++id) {
    controller.OnAdmitted(id, MakeAdmissionFlow(200.0));
  }
  EXPECT_FALSE(controller.Decide(MakeRequest(9)).admit);
  // A NaN or infinite estimate is refused and leaves the standing one in
  // force: the set still costs what it did at 200 bits/RB.
  EXPECT_THROW(controller.OnEstimate(1, std::nan("")), std::invalid_argument);
  EXPECT_THROW(
      controller.OnEstimate(2, std::numeric_limits<double>::infinity()),
      std::invalid_argument);
  EXPECT_FALSE(controller.Decide(MakeRequest(10)).admit);
  // Non-positive estimates carry no signal and are ignored, as before.
  controller.OnEstimate(3, 0.0);
  controller.OnEstimate(4, -5.0);
  EXPECT_FALSE(controller.Decide(MakeRequest(11)).admit);
  for (FlowId id = 1; id <= 4; ++id) controller.OnEstimate(id, 800.0);
  EXPECT_TRUE(controller.Decide(MakeRequest(12)).admit);
}

// ------------------------------------------------------- churn scenarios

TEST(ChurnScenario, FlareChurnReproducesExactly) {
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 60.0;
  config.n_video = 2;
  config.n_data = 1;
  config.churn.enabled = true;
  config.churn.arrival_rate_per_s = 0.3;
  config.churn.mean_hold_s = 10.0;

  const ScenarioResult a = RunScenario(config);
  const ScenarioResult b = RunScenario(config);
  EXPECT_GT(a.sessions_arrived, 0u);
  EXPECT_GT(a.sessions_departed, 0u);
  EXPECT_FALSE(a.churned.empty());
  EXPECT_LE(a.sessions_departed + a.sessions_blocked, a.sessions_arrived);
  EXPECT_EQ(a.sessions_arrived, b.sessions_arrived);
  EXPECT_EQ(a.sessions_departed, b.sessions_departed);
  EXPECT_EQ(a.sessions_blocked, b.sessions_blocked);
  EXPECT_EQ(a.blocking_probability, b.blocking_probability);
  EXPECT_EQ(a.churned.size(), b.churned.size());
  EXPECT_EQ(a.avg_admitted_qoe, b.avg_admitted_qoe);
  EXPECT_EQ(a.avg_video_bitrate_bps, b.avg_video_bitrate_bps);
}

TEST(ChurnScenario, TightAdmissionBlocksEveryArrival) {
  ScenarioConfig config = TestbedPreset(Scheme::kFlare);
  config.duration_s = 40.0;
  config.n_video = 1;
  config.n_data = 1;
  config.churn.enabled = true;
  config.churn.arrival_rate_per_s = 0.5;
  config.churn.mean_hold_s = 20.0;
  config.churn.admission.policy = AdmissionPolicy::kCapacityThreshold;
  // Far below one session's floor-rung share: nothing can be admitted.
  config.churn.admission.capacity_threshold = 1e-6;

  const ScenarioResult result = RunScenario(config);
  EXPECT_GT(result.sessions_arrived, 0u);
  EXPECT_EQ(result.sessions_blocked, result.sessions_arrived);
  EXPECT_EQ(result.blocking_probability, 1.0);
  EXPECT_TRUE(result.churned.empty());
}

TEST(ChurnScenario, ClientSideSchemeChurnsWithoutAdmission) {
  ScenarioConfig config = TestbedPreset(Scheme::kFestive);
  config.duration_s = 60.0;
  config.n_video = 2;
  config.n_data = 0;
  config.churn.enabled = true;
  config.churn.arrival_rate_per_s = 0.3;
  config.churn.mean_hold_s = 10.0;
  config.churn.data_fraction = 0.25;

  const ScenarioResult result = RunScenario(config);
  EXPECT_GT(result.sessions_arrived, 0u);
  EXPECT_GT(result.sessions_departed, 0u);
  EXPECT_EQ(result.sessions_blocked, 0u);
  EXPECT_FALSE(result.churned.empty());
  // The static population's results are still reported in full.
  EXPECT_EQ(result.video.size(), 2u);
}

// Churned AVIS sessions register with the gateway at spawn, as the static
// population does: after one gateway epoch every churned video flow still
// in the cell carries the GBR the gateway assigned it.
TEST(ChurnScenario, AvisGatewayRatesChurnedVideoFlows) {
  ScenarioConfig config = TestbedPreset(Scheme::kAvis);
  config.n_video = 2;
  config.n_data = 1;
  config.churn.enabled = true;
  config.churn.arrival_rate_per_s = 1.0;
  config.churn.mean_hold_s = 20.0;
  config.churn.data_fraction = 0.25;
  Simulator sim;
  Pcrf pcrf;
  ScenarioWorld world(config, sim, pcrf, Rng(config.seed));
  world.Start();
  const Cell& cell = world.cell();
  // Flow ids count up from 1 in spawn order: churned flows follow the
  // static ones.
  const auto first_churned =
      static_cast<FlowId>(config.n_video + config.n_data + 1);
  int checked = 0;
  for (const double t_s : {10.0, 20.0, 30.0}) {
    sim.RunUntil(FromSeconds(t_s));
    std::vector<FlowId> churned_video;
    for (FlowId id = first_churned; id < first_churned + 200; ++id) {
      if (cell.HasFlow(id) && cell.flow(id).type == FlowType::kVideo) {
        churned_video.push_back(id);
      }
    }
    // Two epochs' worth, so at least one epoch boundary lies in between.
    sim.RunUntil(FromSeconds(t_s + 2.0 * config.avis.epoch_s));
    for (const FlowId id : churned_video) {
      if (!cell.HasFlow(id)) continue;  // departed meanwhile
      EXPECT_TRUE(cell.flow(id).has_gbr()) << "flow " << id << " at " << t_s;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(ChurnScenario, SweepSolverMatchesGreedyRungsWithoutChurn) {
  // The solver swap (greedy -> batched sweep) must not change what a
  // churn-free run decides: with zero arrivals the flow set never
  // changes, and both solvers pick envelope-optimal rungs for the static
  // population.
  ScenarioConfig greedy = TestbedPreset(Scheme::kFlare);
  greedy.duration_s = 30.0;
  ScenarioConfig sweep = greedy;
  sweep.churn.enabled = true;
  sweep.churn.arrival_rate_per_s = 1e-9;  // effectively no arrivals
  sweep.churn.mean_hold_s = 1.0;

  const ScenarioResult a = RunScenario(greedy);
  const ScenarioResult b = RunScenario(sweep);
  ASSERT_EQ(a.video.size(), b.video.size());
  for (std::size_t i = 0; i < a.video.size(); ++i) {
    EXPECT_NEAR(a.video[i].avg_bitrate_bps, b.video[i].avg_bitrate_bps,
                0.05 * a.video[i].avg_bitrate_bps + 1.0)
        << "client " << i;
  }
}

// ------------------------------------------------- teardown regressions

TEST(TeardownRegression, GreedyTimerStopsAfterDestroyFlow) {
  Simulator sim;
  MetricsRegistry registry;
  sim.SetMetrics(&registry);
  Cell cell(sim, std::make_unique<PfScheduler>(), CellConfig{}, Rng(1));
  TransportHost transport(sim, cell);
  const UeId ue = cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  TcpFlow& tcp = transport.CreateFlow(ue, FlowType::kData);
  transport.MakeGreedy(tcp.id());

  sim.RunUntil(FromSeconds(1.0));
  transport.DestroyFlow(tcp.id());
  // Drain the last self-check tick plus any in-flight transport events.
  sim.RunUntil(FromSeconds(3.0));
  const std::uint64_t settled = registry.GetCounter("sim.events").value();
  // A leaked periodic timer would keep firing forever; the fixed chain
  // stops at the first tick that finds the flow gone.
  sim.RunUntil(FromSeconds(60.0));
  EXPECT_EQ(registry.GetCounter("sim.events").value(), settled);
}

TEST(TeardownRegression, PendingConnectBookkeepingStaysBounded) {
  Simulator sim;
  Pcrf pcrf;
  Cell cell(sim, std::make_unique<TwoPhaseGbrScheduler>(), CellConfig{},
            Rng(2));
  const UeId ue = cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const FlowId flow = cell.AddFlow(ue, FlowType::kVideo);
  OneApiConfig config;
  Pcef pcef(sim, cell, config.downlink_latency);
  OneApiServer server(sim, cell, pcrf, pcef, config);
  const Mpd mpd = MakeMpd(TestbedLadderKbps(), 2.0);
  FlarePlugin plugin(flow);

  // Repeated connect/disconnect churn: the in-flight map never grows.
  for (int i = 0; i < 5; ++i) {
    server.ConnectVideoClient(&plugin, mpd);
    EXPECT_EQ(server.pending_connects(), 1u);
    server.DisconnectVideoClient(flow);
    EXPECT_EQ(server.pending_connects(), 0u);
  }
  sim.RunUntil(FromSeconds(1.0));
  // Every cancelled connect's delayed callback was a no-op.
  EXPECT_FALSE(pcrf.Knows(flow));
  EXPECT_EQ(server.pending_connects(), 0u);

  // A connect left alone lands and clears its own entry.
  server.ConnectVideoClient(&plugin, mpd);
  EXPECT_EQ(server.pending_connects(), 1u);
  sim.RunUntil(sim.Now() + FromSeconds(1.0));
  EXPECT_EQ(server.pending_connects(), 0u);
  EXPECT_TRUE(pcrf.Knows(flow));
}

TEST(TeardownRegression, ReleaseUeGuardsAndReusesSlots) {
  Simulator sim;
  Cell cell(sim, std::make_unique<PfScheduler>(), CellConfig{}, Rng(3));
  const UeId a = cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  const UeId b = cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  ASSERT_NE(a, b);
  EXPECT_EQ(cell.NumActiveUes(), 2u);

  const FlowId flow = cell.AddFlow(a, FlowType::kVideo);
  // A UE with flows attached must not be released out from under them.
  EXPECT_THROW(cell.ReleaseUe(a), std::invalid_argument);
  cell.RemoveFlow(flow);
  cell.ReleaseUe(a);
  EXPECT_EQ(cell.NumActiveUes(), 1u);
  // The released slot is fenced off...
  EXPECT_THROW(cell.AddFlow(a, FlowType::kVideo), std::out_of_range);
  EXPECT_THROW(cell.UeItbs(a), std::out_of_range);
  EXPECT_THROW(cell.ReleaseUe(a), std::invalid_argument);
  // ...until AddUe recycles it instead of growing the table.
  const UeId c = cell.AddUe(std::make_unique<StaticItbsChannel>(9));
  EXPECT_EQ(c, a);
  EXPECT_EQ(cell.NumActiveUes(), 2u);
  cell.Start();
  sim.RunUntil(FromSeconds(0.1));  // TTI loop skips released slots
}

TEST(TeardownRegression, VideoSessionSafeToDestroyMidDownload) {
  Simulator sim;
  Cell cell(sim, std::make_unique<PfScheduler>(), CellConfig{}, Rng(4));
  TransportHost transport(sim, cell);
  const UeId ue = cell.AddUe(std::make_unique<StaticItbsChannel>(7));
  TcpFlow& tcp = transport.CreateFlow(ue, FlowType::kVideo);
  const FlowId flow = tcp.id();
  auto http = std::make_unique<HttpClient>(sim, tcp);
  const Mpd mpd = MakeMpd(TestbedLadderKbps(), 2.0);
  auto session = std::make_unique<VideoSession>(
      sim, *http, mpd, std::make_unique<GoogleAbr>(), VideoSessionConfig{});

  cell.Start();
  session->Start(FromSeconds(0.1));
  sim.RunUntil(FromSeconds(2.5));  // mid-download, events in flight

  // Teardown in dependency order while pump/uplink/completion callbacks
  // are still queued; the liveness guards must turn them into no-ops
  // (ASan verifies nothing dangles).
  session.reset();
  http.reset();
  transport.DestroyFlow(flow);
  cell.ReleaseUe(ue);
  sim.RunUntil(FromSeconds(10.0));
  EXPECT_FALSE(transport.Has(flow));
}

TEST(ChurnMultiCell, ArrivalDuringHandoverIsAdmitted) {
  Simulator sim;
  Pcrf pcrf;
  OneApiConfig config;
  config.bai = FromSeconds(1.0);

  auto make_cell = [&sim](std::uint64_t seed) {
    auto cell = std::make_unique<Cell>(
        sim, std::make_unique<TwoPhaseGbrScheduler>(), CellConfig{},
        Rng(seed));
    cell->AddUe(std::make_unique<StaticItbsChannel>(10));
    return cell;
  };
  auto cell_a = make_cell(1);
  auto cell_b = make_cell(2);
  // One server per cell over the shared PCRF.
  Pcef pcef_a(sim, *cell_a, config.downlink_latency);
  Pcef pcef_b(sim, *cell_b, config.downlink_latency);
  OneApiConfig config_b = config;
  config_b.cell_tag = 1;
  OneApiServer server_a(sim, *cell_a, pcrf, pcef_a, config);
  OneApiServer server_b(sim, *cell_b, pcrf, pcef_b, config_b);

  AdmissionController admission;  // admit-all
  server_b.SetAdmissionController(&admission);
  std::vector<std::pair<FlowId, bool>> outcomes;
  server_b.SetAdmissionCallback([&outcomes](FlowId flow, bool admitted) {
    outcomes.emplace_back(flow, admitted);
  });

  const Mpd mpd = MakeMpd(SimulationLadderKbps(), 10.0);
  // Session 1 streams through cell A...
  const FlowId flow1 = cell_a->AddFlow(0, FlowType::kVideo);
  FlarePlugin plugin1(flow1);
  server_a.ConnectVideoClient(&plugin1, mpd);
  sim.RunUntil(FromSeconds(0.5));
  ASSERT_TRUE(server_a.HasClient(flow1));

  // ...starts a handover into cell B, and while that connect is still in
  // flight a brand-new session arrives in B.
  const FlowId flow1_b = cell_b->AddFlow(0, FlowType::kVideo);
  FlarePlugin plugin1_b(flow1_b);
  server_b.ConnectVideoClient(&plugin1_b, mpd);
  const FlowId flow2 = cell_b->AddFlow(0, FlowType::kVideo);
  FlarePlugin plugin2(flow2);
  server_b.ConnectVideoClient(&plugin2, mpd);
  EXPECT_EQ(server_b.pending_connects(), 2u);

  sim.RunUntil(FromSeconds(1.0));
  EXPECT_EQ(server_b.pending_connects(), 0u);
  // Both the migrating session and the mid-handover arrival were admitted
  // into B's admission set.
  EXPECT_EQ(admission.admitted_flows(), 2u);
  EXPECT_TRUE(server_b.HasClient(flow2));
  bool saw_flow2 = false;
  for (const auto& [flow, admitted] : outcomes) {
    EXPECT_TRUE(admitted);
    if (flow == flow2) saw_flow2 = true;
  }
  EXPECT_TRUE(saw_flow2);
}

}  // namespace
}  // namespace flare
